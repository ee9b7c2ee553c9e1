#include "gmd/dse/shard.hpp"

#include <cstdio>
#include <fstream>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"

namespace gmd::dse {

ShardPlan::ShardPlan(std::size_t num_points, std::size_t shard_size)
    : num_points_(num_points),
      shard_size_(shard_size),
      num_shards_(0) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, shard_size > 0,
                 "shard_size must be positive");
  GMD_REQUIRE_AS(ErrorCode::kConfig, num_points > 0,
                 "a distributed sweep needs at least one design point");
  num_shards_ = (num_points + shard_size - 1) / shard_size;
}

ShardRange ShardPlan::range(std::size_t shard) const {
  GMD_REQUIRE_AS(ErrorCode::kConfig, shard < num_shards_,
                 "shard " << shard << " out of range (plan has "
                          << num_shards_ << ")");
  const std::size_t begin = shard * shard_size_;
  return ShardRange{begin, std::min(begin + shard_size_, num_points_)};
}

void write_run_meta(const std::string& path, const RunMeta& meta) {
  atomic_write_file(path, [&meta](std::ostream& os) {
    os << "gmd-sweep-run v1 trace=" << to_hex16(meta.key.trace_hash)
       << " points=" << to_hex16(meta.key.points_hash)
       << " count=" << meta.key.num_points
       << " shard_size=" << meta.shard_size << '\n';
  });
}

RunMeta read_run_meta(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  GMD_REQUIRE_AS(ErrorCode::kIo, static_cast<bool>(std::getline(in, line)),
                 "cannot read run meta '" << path << "'");
  // Exactly the line write_run_meta writes; anything else is rot.
  char trace[17] = {};
  char points[17] = {};
  unsigned long long count = 0;
  unsigned long long shard_size = 0;
  int end = -1;
  std::sscanf(line.c_str(),
              "gmd-sweep-run v1 trace=%16s points=%16s count=%llu "
              "shard_size=%llu%n",
              trace, points, &count, &shard_size, &end);
  const auto trace_hash = parse_hex16(trace);
  const auto points_hash = parse_hex16(points);
  GMD_REQUIRE_AS(ErrorCode::kIo,
                 end == static_cast<int>(line.size()) && trace_hash &&
                     points_hash && shard_size > 0,
                 "'" << path << "' is not a valid v1 sweep run meta");
  return RunMeta{{*trace_hash, *points_hash, count}, shard_size};
}

}  // namespace gmd::dse
