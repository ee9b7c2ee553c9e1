/// \file report.cpp
/// Statistics, the host fingerprint, results files and --compare.

#include <sys/statfs.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_e2e.hpp"
#include "gmd/common/error.hpp"
#include "gmd/service/json.hpp"

namespace gmd::bench_e2e {

namespace fs = std::filesystem;
using service::Json;

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void add_sample(Metrics& metrics, const std::string& name,
                const std::string& unit, double value) {
  Metric& metric = metrics[name];
  metric.unit = unit;
  metric.samples.push_back(value);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  const long m = n + 1;
  std::vector<double> result;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    result.push_back((values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0);
  }
  return result;
}

// --- host fingerprint -----------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Output of `command` with trailing whitespace removed ("" on failure).
std::string command_output(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  if (::pclose(pipe) != 0) return "";
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back()))) {
    out.pop_back();
  }
  return out;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Json metrics_json(const Metrics& metrics) {
  Json out{Json::Object{}};
  for (const auto& [name, metric] : metrics) {
    Json entry;
    entry["value"] = median(metric.samples);
    entry["unit"] = metric.unit;
    entry["samples"] =
        Json(Json::Array(metric.samples.begin(), metric.samples.end()));
    out[name] = std::move(entry);
  }
  return out;
}

}  // namespace

HostFingerprint host_fingerprint(const std::string& run_dir) {
  HostFingerprint host;
  host.nproc = std::thread::hardware_concurrency();
  host.cpu_model = cpu_model();
  host.compiler = GMD_BENCH_COMPILER;
  host.build_type = GMD_BENCH_BUILD_TYPE;
  host.cxx_flags = GMD_BENCH_CXX_FLAGS;
  // Only a checkout that is itself a git work tree: git would otherwise
  // report an enclosing repository.
  const std::string source = GMD_BENCH_SOURCE_DIR;
  if (fs::exists(source + "/.git")) {
    const std::string git = "git -C '" + source + "' ";
    host.git_sha = command_output(git + "rev-parse HEAD 2>/dev/null");
    host.git_dirty = !command_output(git +
                                     "status --porcelain --untracked-files=no "
                                     "2>/dev/null")
                          .empty();
  }
  if (host.git_sha.empty()) host.git_sha = "unknown";
  host.run_dir_fs = filesystem_type(run_dir);
  return host;
}

// --- results files --------------------------------------------------------

std::string results_json(const HostFingerprint& host, std::uint64_t seed,
                         double seconds, std::size_t threads, bool quick,
                         const std::vector<WorkloadRun>& runs) {
  Json h;
  h["nproc"] = host.nproc;
  h["cpu_model"] = host.cpu_model;
  h["compiler"] = host.compiler;
  h["build_type"] = host.build_type;
  h["cxx_flags"] = host.cxx_flags;
  h["git_sha"] = host.git_sha;
  h["git_dirty"] = host.git_dirty;
  h["run_dir_fs"] = host.run_dir_fs;

  Json options;
  options["seed"] = seed;
  options["seconds"] = seconds;
  options["threads"] = threads;
  options["quick"] = quick;

  Json::Array list;
  for (const WorkloadRun& run : runs) {
    Json r;
    r["workload"] = run.workload;
    r["traced"] = run.traced;
    r["correct"] = run.correct;
    r["failures"] =
        Json(Json::Array(run.failures.begin(), run.failures.end()));
    r["attempted"] = run.attempted;
    r["failed"] = run.failed;
    r["digest"] = hex64(run.digest);
    r["metrics"] = metrics_json(run.metrics);
    list.push_back(std::move(r));
  }

  Json root;
  root["schema"] = "bench_e2e-results/1";
  root["host"] = std::move(h);
  root["options"] = std::move(options);
  root["runs"] = Json(std::move(list));
  return root.dump() + "\n";
}

std::vector<WorkloadRun> load_results(const std::string& path,
                                      std::string* run_dir_fs) {
  std::ifstream in(path);
  GMD_REQUIRE(in.good(), "cannot read results file '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  const Json root = Json::parse(text.str());
  if (run_dir_fs != nullptr) {
    *run_dir_fs = root.at("host").at("run_dir_fs").as_string();
  }
  std::vector<WorkloadRun> runs;
  for (const Json& r : root.at("runs").as_array()) {
    WorkloadRun run;
    run.workload = r.at("workload").as_string();
    run.traced = r.at("traced").as_bool();
    run.correct = r.at("correct").as_bool();
    for (const Json& f : r.at("failures").as_array()) {
      run.failures.push_back(f.as_string());
    }
    run.attempted = static_cast<std::uint64_t>(r.at("attempted").as_number());
    run.failed = static_cast<std::uint64_t>(r.at("failed").as_number());
    run.digest = std::stoull(r.at("digest").as_string(), nullptr, 16);
    for (const auto& [name, entry] : r.at("metrics").as_object()) {
      Metric& metric = run.metrics[name];
      metric.unit = entry.at("unit").as_string();
      for (const Json& s : entry.at("samples").as_array()) {
        metric.samples.push_back(s.as_number());
      }
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

namespace {

Json benchmark_json() {
  const std::string path =
      std::string(GMD_BENCH_SOURCE_DIR) + "/BENCHMARK.json";
  std::ifstream in(path);
  GMD_REQUIRE(in.good(), "cannot read " << path);
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

}  // namespace

std::vector<std::string> declared_metrics(bool per_layer) {
  const Json benchmark = benchmark_json();
  std::vector<std::string> names;
  for (const Json& m :
       benchmark.at(per_layer ? "per_layer" : "end_to_end").as_array()) {
    names.push_back(m.at("name").as_string());
  }
  return names;
}

bool declared_workload(const std::string& name) {
  const Json benchmark = benchmark_json();
  const Json::Array& workloads = benchmark.at("workloads").as_array();
  return std::any_of(workloads.begin(), workloads.end(), [&](const Json& w) {
    return w.at("name").as_string() == name;
  });
}

std::string result_line(const WorkloadRun& run,
                        const std::vector<std::string>& declared) {
  Json metrics{Json::Object{}};
  for (const std::string& name : declared) {
    const auto it = run.metrics.find(name);
    if (it == run.metrics.end()) continue;
    Json entry;
    entry["value"] = median(it->second.samples);
    entry["unit"] = it->second.unit;
    metrics[name] = std::move(entry);
  }
  Json line;
  line["correct"] = run.correct;
  line["attempted"] = run.attempted;
  line["failed"] = run.failed;
  line["metrics"] = std::move(metrics);
  return line.dump();
}

// --- compare ----------------------------------------------------------------

namespace {

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

std::vector<Bound> end_to_end_bounds() {
  const Json benchmark = benchmark_json();
  std::vector<Bound> bounds;
  for (const Json& m : benchmark.at("end_to_end").as_array()) {
    bounds.push_back({m.at("name").as_string(),
                      m.at("better").as_string() == "higher",
                      m.at("bound").as_number()});
  }
  return bounds;
}

/// Every untraced run in `path` (a results file or a directory of them).
std::vector<WorkloadRun> load_side(const std::string& path,
                                   std::string& run_dir_fs) {
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  GMD_REQUIRE(!files.empty(), "no results files under '" << path << "'");
  std::vector<WorkloadRun> runs;
  for (const std::string& file : files) {
    std::string fs_type;
    for (WorkloadRun& run : load_results(file, &fs_type)) {
      if (!run.traced) runs.push_back(std::move(run));
    }
    GMD_REQUIRE(run_dir_fs.empty() || run_dir_fs == fs_type,
                "results under '" << path << "' mix run-dir filesystems ("
                                  << run_dir_fs << ", " << fs_type << ")");
    run_dir_fs = fs_type;
  }
  return runs;
}

/// One value per run of `workload`; a side with a single run
/// contributes that run's per-pass samples instead.
std::vector<double> values_of(const std::vector<WorkloadRun>& runs,
                              const std::string& workload,
                              const std::string& metric) {
  std::vector<const WorkloadRun*> matching;
  for (const WorkloadRun& run : runs) {
    if (run.workload == workload && run.metrics.contains(metric)) {
      matching.push_back(&run);
    }
  }
  if (matching.size() == 1) return matching[0]->metrics.at(metric).samples;
  std::vector<double> values;
  for (const WorkloadRun* run : matching) {
    values.push_back(median(run->metrics.at(metric).samples));
  }
  return values;
}

double spread(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const std::vector<double> q = quartiles(values);
  return (q[2] - q[0]) / median(values);
}

double failed_fraction(const std::vector<WorkloadRun>& runs,
                       const std::string& workload) {
  double attempted = 0.0;
  double failed = 0.0;
  for (const WorkloadRun& run : runs) {
    if (run.workload != workload) continue;
    attempted += static_cast<double>(run.attempted);
    failed += static_cast<double>(run.failed);
  }
  return attempted > 0.0 ? failed / attempted : 0.0;
}

}  // namespace

int compare_results(const std::string& base, const std::string& next) {
  std::string base_fs;
  std::string next_fs;
  const std::vector<WorkloadRun> base_runs = load_side(base, base_fs);
  const std::vector<WorkloadRun> next_runs = load_side(next, next_fs);
  if (base_fs != next_fs) {
    std::cerr << "refusing to compare: BASE ran on " << base_fs
              << " and NEW on " << next_fs
              << "; the fsync-bound work is not comparable across them\n";
    return 2;
  }

  std::vector<std::string> workloads;
  for (const WorkloadRun& run : base_runs) {
    if (std::find(workloads.begin(), workloads.end(), run.workload) ==
        workloads.end()) {
      workloads.push_back(run.workload);
    }
  }

  int worse = 0;
  std::printf("%-12s %-18s %14s %14s %8s %8s %8s  %s\n", "workload", "metric",
              "base_median", "new_median", "change", "spread", "bound",
              "verdict");
  for (const std::string& workload : workloads) {
    for (const Bound& b : end_to_end_bounds()) {
      const std::vector<double> old_values =
          values_of(base_runs, workload, b.name);
      const std::vector<double> new_values =
          values_of(next_runs, workload, b.name);
      if (old_values.empty() || new_values.empty()) continue;
      const double old_median = median(old_values);
      const double new_median = median(new_values);
      // Positive = better, as a share of the base median.
      const double change = (b.higher_is_better ? new_median - old_median
                                                : old_median - new_median) /
                            old_median;
      const double width = std::max(spread(old_values), spread(new_values));
      const auto [new_lo, new_hi] =
          std::minmax_element(new_values.begin(), new_values.end());
      const auto [old_lo, old_hi] =
          std::minmax_element(old_values.begin(), old_values.end());
      const bool all_new_better =
          b.higher_is_better ? *new_lo > *old_hi : *new_hi < *old_lo;
      std::string verdict;
      if (width > b.bound) {
        verdict = all_new_better ? "better" : "unresolved";
      } else if (change < -b.bound) {
        verdict = "worse";
      } else if (change > spread(old_values) && all_new_better) {
        verdict = "better";
      } else {
        verdict = "unchanged";
      }
      if (verdict == "worse") ++worse;
      std::printf("%-12s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
                  workload.c_str(), b.name.c_str(), old_median, new_median,
                  100.0 * change, 100.0 * width, 100.0 * b.bound,
                  verdict.c_str());
    }
    const double old_failed = failed_fraction(base_runs, workload);
    const double new_failed = failed_fraction(next_runs, workload);
    if (new_failed > old_failed) {
      std::printf("%-12s %-18s %14.6g %14.6g  failed share rose\n",
                  workload.c_str(), "failed_frac", old_failed, new_failed);
      ++worse;
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace gmd::bench_e2e
