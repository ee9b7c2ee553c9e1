/// \file main.cpp
/// bench_e2e: the pinned end-to-end benchmark.
///
///   bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
///             [--threads T] [--run-dir DIR] [--out FILE] [--spans FILE]
///             [--quick]
///   bench_e2e --compare BASE NEW
///
/// One workload per process.  Untraced (--trace 0), it sets the inputs up
/// five times (setup_s is the median CPU time) and then repeats the
/// workload's pass until --seconds have elapsed; only whole calls are
/// timed.
/// Traced (--trace 1), each iteration is set-up, pass and drill-downs
/// with a span around every call, repeated for --seconds; the per-layer
/// metrics are medians over iterations.  The last stdout line is one
/// JSON object with the metrics BENCHMARK.json declares for the mode.
/// `--workload all` runs every workload untraced and traced, each in its
/// own child process, and merges the results.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_e2e.hpp"
#include "gmd/common/logging.hpp"

extern char** environ;

namespace gmd::bench_e2e {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = -1.0;  ///< < 0: 10, or 0 with --quick.
  bool trace = false;
  std::size_t threads = 0;
  std::string run_dir;
  std::string out;
  std::string spans;
  bool quick = false;
  std::vector<std::string> compare;
};

std::string self_exe() { return fs::read_symlink("/proc/self/exe").string(); }

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error << "\n"
            << "usage: bench_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--threads T] [--run-dir DIR] "
               "[--out FILE] [--spans FILE] [--quick]\n"
               "       bench_e2e --compare BASE NEW\n"
               "workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  const auto number = [&](int& i) {
    const std::string flag = argv[i];
    const std::string text = value(i);
    try {
      std::size_t used = 0;
      const double v = std::stod(text, &used);
      if (used == text.size() && v >= 0) return v;
    } catch (const std::exception&) {
    }
    usage("bad value '" + text + "' for " + flag);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      o.workload = value(i);
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(number(i));
    } else if (arg == "--seconds") {
      o.seconds = number(i);
    } else if (arg == "--trace") {
      o.trace = number(i) != 0.0;
    } else if (arg == "--threads") {
      o.threads = static_cast<std::size_t>(number(i));
    } else if (arg == "--run-dir") {
      o.run_dir = value(i);
    } else if (arg == "--out") {
      o.out = value(i);
    } else if (arg == "--spans") {
      o.spans = value(i);
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--compare") {
      o.compare = {value(i), value(i)};
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (o.workload != "all" &&
      std::find(workload_names().begin(), workload_names().end(),
                o.workload) == workload_names().end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.seconds < 0) o.seconds = o.quick ? 0.0 : 10.0;
  if (o.threads == 0) {
    o.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                        1, 4);
  }
  if (o.run_dir.empty()) {
    o.run_dir = (fs::path(self_exe()).parent_path() / "bench-runs").string();
  }
  return o;
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User plus system CPU time of every thread of the process so far.
double cpu_seconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

WorkloadRun run_workload(const Options& o) {
  WorkloadRun run;
  run.workload = o.workload;
  run.traced = o.trace;
  Tracer tracer(o.trace);
  Metrics layers;
  Env env;
  env.seed = o.seed;
  env.threads = o.threads;
  env.quick = o.quick;
  env.dir = o.run_dir + "/" + o.workload;
  env.tracer = &tracer;
  env.layers = o.trace ? &layers : nullptr;
  fs::remove_all(env.dir);
  fs::create_directories(env.dir);

  try {
    const std::unique_ptr<Workload> workload = make_workload(o.workload, env);
    bool first_pass = true;
    const auto record = [&](const PassOutput& out) {
      run.attempted += out.attempted;
      run.failed += out.failed;
      check(out.failed == 0, std::to_string(out.failed) + " of " +
                                 std::to_string(out.attempted) +
                                 " operations failed");
      if (first_pass) {
        run.digest = out.digest;
        first_pass = false;
        const std::uint64_t pinned = workload->pinned_digest();
        check(o.seed != 1 || pinned == 0 || out.digest == pinned,
              "outputs differ from the pinned seed-1 outputs");
      } else if (out.same_inputs_every_pass) {
        check(out.digest == run.digest, "outputs differ between passes");
      }
    };

    if (!o.trace) {
      // setup_s is CPU time: set-up publishes the GMDT store, and the
      // writer's two fsyncs made its wall time drift with disk load by
      // more than any bound could absorb.  Work moved into set-up still
      // shows in CPU time; the wall time is kept as setup_wall_s.
      for (int i = 0; i < (o.quick ? 1 : 5); ++i) {
        const auto start = Clock::now();
        const double cpu_start = cpu_seconds();
        workload->setup();
        add_sample(run.metrics, "setup_s", "s", cpu_seconds() - cpu_start);
        add_sample(run.metrics, "setup_wall_s", "s", seconds_since(start));
      }
      const auto measure_start = Clock::now();
      do {
        const auto start = Clock::now();
        const PassOutput out = workload->pass();
        const double seconds = seconds_since(start);
        add_sample(run.metrics, "wall_s", "s", seconds);
        add_sample(run.metrics, "sim_events_per_s", "1/s",
                   out.simulated_events / seconds);
        record(out);
      } while (seconds_since(measure_start) < o.seconds);
      workload->finish(run.metrics);
      add_sample(run.metrics, "peak_rss_mb", "MB", peak_rss_mb());
    } else {
      const auto measure_start = Clock::now();
      do {
        const std::uint32_t first_id = tracer.last_id() + 1;
        {
          const Scope scope(tracer, "bench.setup");
          workload->setup();
        }
        {
          const Scope scope(tracer, "bench.pass");
          record(workload->pass());
        }
        {
          const Scope scope(tracer, "bench.drill");
          workload->drill(layers);
        }
        const SpanTotals totals =
            summarize_spans(tracer.spans(), first_id, tracer.last_id());
        for (const auto& [layer, self_s] : totals.self_by_layer) {
          add_sample(layers, layer + ".self_s", "s", self_s);
        }
        add_sample(layers, "bench.span_coverage", "ratio", totals.coverage);
      } while (seconds_since(measure_start) < o.seconds);
      workload->finish(layers);
      run.metrics = std::move(layers);
    }
  } catch (const CheckFailure& e) {
    run.failures.push_back(e.what());
  } catch (const std::exception& e) {
    run.failures.push_back(std::string("error: ") + e.what());
  }

  if (declared_workload(o.workload)) {
    for (const std::string& name : declared_metrics(o.trace)) {
      if (run.failures.empty() && !run.metrics.contains(name)) {
        run.failures.push_back("declared metric '" + name + "' not measured");
      }
    }
  }
  run.correct = run.failures.empty();
  if (!o.spans.empty()) write_spans_jsonl(o.spans, o.workload, tracer.spans());
  fs::remove_all(env.dir);
  return run;
}

void print_summary(const WorkloadRun& run) {
  std::fprintf(stderr, "== %s (%s): %s, %llu attempted, %llu failed\n",
               run.workload.c_str(), run.traced ? "traced" : "end-to-end",
               run.correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed));
  for (const std::string& failure : run.failures) {
    std::fprintf(stderr, "   check failed: %s\n", failure.c_str());
  }
  for (const auto& [name, metric] : run.metrics) {
    std::fprintf(stderr, "   %-36s %14.6g %-6s (n=%zu)\n", name.c_str(),
                 median(metric.samples), metric.unit.c_str(),
                 metric.samples.size());
  }
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  check(out.good(), "cannot write " + path);
}

/// `--workload all`: each workload untraced then traced, each run in a
/// child process of its own so peak RSS is per workload.
int run_all(const Options& o) {
  fs::create_directories(o.run_dir);
  if (!o.spans.empty()) fs::remove(o.spans);
  const std::string exe = self_exe();
  std::vector<WorkloadRun> runs;
  for (const std::string& name : workload_names()) {
    for (const bool traced : {false, true}) {
      const std::string result =
          o.run_dir + "/" + name + (traced ? "-traced" : "") + ".json";
      std::vector<std::string> args = {
          exe,        "--workload", name,
          "--seed",   std::to_string(o.seed),
          "--seconds", std::to_string(o.seconds),
          "--trace",  traced ? "1" : "0",
          "--threads", std::to_string(o.threads),
          "--run-dir", o.run_dir,
          "--out",    result};
      if (!o.spans.empty()) args.insert(args.end(), {"--spans", o.spans});
      if (o.quick) args.push_back("--quick");
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      pid_t pid = 0;
      if (::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                        environ) != 0) {
        std::cerr << "bench_e2e: cannot start " << exe << "\n";
        return 1;
      }
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (fs::exists(result)) {
        for (WorkloadRun& run : load_results(result, nullptr)) {
          runs.push_back(std::move(run));
        }
        fs::remove(result);
      } else {
        WorkloadRun failed;
        failed.workload = name;
        failed.traced = traced;
        failed.correct = false;
        failed.failures.push_back("run exited with status " +
                                  std::to_string(status) + " and no results");
        runs.push_back(std::move(failed));
      }
    }
  }
  bool all_correct = true;
  std::fprintf(stderr, "\n==== bench_e2e --workload all ====\n");
  for (const WorkloadRun& run : runs) {
    print_summary(run);
    all_correct = all_correct && run.correct;
  }
  if (!o.out.empty()) {
    write_text(o.out, results_json(host_fingerprint(o.run_dir), o.seed,
                                   o.seconds, o.threads, o.quick, runs));
  }
  std::printf("bench_e2e: %zu runs, %s\n", runs.size(),
              all_correct ? "all correct" : "SOME INCORRECT");
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace gmd::bench_e2e

int main(int argc, char** argv) {
  using namespace gmd::bench_e2e;
  gmd::log::set_level(gmd::log::Level::kWarn);
  const Options o = parse(argc, argv);
  try {
    if (!o.compare.empty()) return compare_results(o.compare[0], o.compare[1]);
    if (o.workload == "all") return run_all(o);
    fs::create_directories(o.run_dir);
    const WorkloadRun run = run_workload(o);
    print_summary(run);
    if (!o.out.empty()) {
      write_text(o.out, results_json(host_fingerprint(o.run_dir), o.seed,
                                     o.seconds, o.threads, o.quick, {run}));
    }
    std::printf("%s\n", result_line(run, declared_metrics(o.trace)).c_str());
    return run.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
