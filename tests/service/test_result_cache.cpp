#include "gmd/service/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "gmd/common/deadline.hpp"
#include "gmd/common/thread_pool.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd::service {
namespace {

dse::DesignPoint sample_point() {
  dse::DesignPoint point;
  point.kind = dse::MemoryKind::kNvm;
  point.cpu_freq_mhz = 3333;
  point.ctrl_freq_mhz = 666;
  point.channels = 4;
  point.trcd = 50;
  return point;
}

TEST(SimulateCacheKey, SensitiveToTracePointAndGeometry) {
  const dse::DesignPoint point = sample_point();
  dse::SimulateOptions options;
  const std::uint64_t base = simulate_cache_key(1, point, options);

  // Trace content participates.
  EXPECT_NE(simulate_cache_key(2, point, options), base);

  // Every DesignPoint field participates.
  for (const auto& mutate : std::vector<std::function<void(dse::DesignPoint&)>>{
           [](auto& p) { p.kind = dse::MemoryKind::kDram; },
           [](auto& p) { ++p.cpu_freq_mhz; },
           [](auto& p) { ++p.ctrl_freq_mhz; },
           [](auto& p) { ++p.channels; },
           [](auto& p) { ++p.trcd; },
           [](auto& p) { p.dram_fraction = 0.25; }}) {
    dse::DesignPoint changed = point;
    mutate(changed);
    EXPECT_NE(simulate_cache_key(1, changed, options), base);
  }

  // Sampled geometry forks the key; every sampling field participates.
  dse::SimulateOptions sampled = options;
  sampled.sample_fraction = 0.5;
  const std::uint64_t sampled_key = simulate_cache_key(1, point, sampled);
  EXPECT_NE(sampled_key, base);
  dse::SimulateOptions seed = sampled;
  seed.sample_seed = 9;
  EXPECT_NE(simulate_cache_key(1, point, seed), sampled_key);
  dse::SimulateOptions warmup = sampled;
  warmup.sample_warmup_chunks = 3;
  EXPECT_NE(simulate_cache_key(1, point, warmup), sampled_key);
}

TEST(SimulateCacheKey, IdentityNeutralFieldsDoNotFork) {
  const dse::DesignPoint point = sample_point();
  dse::SimulateOptions options;
  const std::uint64_t base = simulate_cache_key(1, point, options);

  // Dormant sampling geometry (exhaustive request) is identity-neutral,
  // mirroring the sweep journal.
  dse::SimulateOptions dormant = options;
  dormant.sample_seed = 123;
  dormant.sample_warmup_chunks = 7;
  EXPECT_EQ(simulate_cache_key(1, point, dormant), base);

  // Warm feeds are an implementation detail, not an identity.
  dse::SimulateOptions deadline = options;
  Deadline token;
  deadline.deadline = &token;
  EXPECT_EQ(simulate_cache_key(1, point, deadline), base);
}

TEST(ResultCache, HitReturnsTheExactStoredRow) {
  ResultCache cache(4);
  auto row = std::make_shared<const dse::MetricsRow>();
  cache.put(1, row);
  const auto hit = cache.get(1);
  ASSERT_TRUE(hit.has_value());
  // The hit is the same object — trivially bit-identical to what the
  // fresh simulation stored.
  EXPECT_EQ(hit->get(), row.get());
  EXPECT_FALSE(cache.get(2).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCache, EvictionIsDeterministic) {
  // Same access sequence, same survivors — replayed three times.
  std::vector<std::uint64_t> survivors_reference;
  for (int round = 0; round < 3; ++round) {
    ResultCache cache(8, /*num_shards=*/1);
    for (std::uint64_t k = 0; k < 32; ++k) {
      cache.put(k, std::make_shared<const dse::MetricsRow>());
      if (k % 3 == 0) (void)cache.get(k / 2);
    }
    std::vector<std::uint64_t> survivors;
    for (std::uint64_t k = 0; k < 32; ++k) {
      if (cache.get(k).has_value()) survivors.push_back(k);
    }
    EXPECT_EQ(survivors.size(), 8u);
    if (round == 0) {
      survivors_reference = survivors;
    } else {
      EXPECT_EQ(survivors, survivors_reference);
    }
  }
}

// Deterministic simulation is what makes a cache hit equivalent to
// re-simulating: the row a future hit returns must match what a fresh
// simulate_point would produce bit for bit.
TEST(ResultCache, CachedRowMatchesFreshSimulation) {
  const std::string path =
      testing::TempDir() + "/gmd_result_cache_store.gmdt";
  std::filesystem::remove(path);
  graph::UniformRandomParams params;
  params.num_vertices = 96;
  params.edge_factor = 8;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  tracestore::write_trace_store(path, sink.events());
  tracestore::TraceStoreReader store(path);

  const dse::DesignPoint point = sample_point();
  ResultCache cache(4);
  const std::uint64_t key =
      simulate_cache_key(store.content_checksum(), point, {});
  cache.put(key, std::make_shared<const dse::MetricsRow>(
                     dse::simulate_point(store, point)));

  const auto hit = cache.get(key);
  ASSERT_TRUE(hit.has_value());
  const dse::MetricsRow fresh = dse::simulate_point(store, point);
  EXPECT_EQ((*hit)->metrics.metric_values(), fresh.metrics.metric_values());
  EXPECT_EQ((*hit)->metrics.row_hits, fresh.metrics.row_hits);
  EXPECT_EQ((*hit)->metrics.execution_seconds,
            fresh.metrics.execution_seconds);
  std::filesystem::remove(path);
}

// Shared rows under concurrent mixed get/put from a ThreadPool: counts
// stay balanced and every returned row is a valid shared_ptr.
TEST(ResultCache, ConcurrentAccessUnderThreadPool) {
  ResultCache cache(64, 8);
  ThreadPool pool(8);
  std::atomic<std::uint64_t> returned{0};
  for (std::size_t t = 0; t < 16; ++t) {
    pool.submit([&cache, &returned, t] {
      std::uint64_t state = 0x9E3779B97F4A7C15ULL * (t + 1);
      for (int k = 0; k < 500; ++k) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t key = (state >> 33) % 128;
        if (state & 1) {
          auto row = std::make_shared<const dse::MetricsRow>();
          cache.put(key, std::move(row));
        } else if (cache.get(key).has_value()) {
          returned.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  pool.wait();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, returned.load());
  EXPECT_LE(cache.size(), cache.capacity());
}

}  // namespace
}  // namespace gmd::service
