/// \file memory_explorer.cpp
/// The architect's view: sweep one design axis (or a full design space)
/// for a chosen workload and print a metric table per configuration —
/// the interactive equivalent of reading one block of the paper's
/// Figure 2.
///
/// Usage: memory_explorer [--workload bfs|dobfs|pagerank|cc|sssp|triangles]
///                        [--vertices N] [--space axis|reduced|paper|million]
///                        [--limit N] [--axis ctrl|cpu|channels|trcd]
///                        [--kind dram|nvm|hybrid]
///                        [--trace-dir DIR] [--trace-format text|gmdt]
///                        [--policy failfast|skip|retry] [--retries N]
///                        [--deadline-ms N] [--checkpoint PATH] [--resume]
///                        [--csv PATH]
///
/// With --trace-dir the workload trace goes through the on-disk
/// pipeline first (gem5 text, then the chosen container); the gmdt
/// path feeds the sweep straight from the memory-mapped store.
///
/// Distributed mode (--run-dir DIR): the sweep executes as a
/// lease-based multi-process run over a shared run directory.  The
/// trace is published once as <run-dir>/trace.gmdt and every worker
/// maps it read-only.
///
///   --run-dir DIR --distributed N   fork N workers, supervise them,
///                                   survive (and respawn) dead ones
///   --run-dir DIR --supervise-only  plan/monitor/merge only; point
///                                   `sweep_worker --run-dir DIR` at the
///                                   same directory from other processes
///
/// --kill-workers K --kill-after-points P makes the first K forked
/// workers _Exit(137) (the SIGKILL stand-in) after journaling P points
/// — the deterministic crash-recovery demo: the run still completes
/// and the merged rows are bit-identical to a single-process sweep.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/distributed.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workload.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace {

using namespace gmd;

std::vector<dse::DesignPoint> build_points(const std::string& space,
                                           const std::string& axis,
                                           dse::MemoryKind kind,
                                           std::size_t limit) {
  std::vector<dse::DesignPoint> points;
  if (space == "axis") {
    points = dse::axis_design_points(axis, kind);
  } else if (space == "reduced") {
    points = dse::reduced_design_space();
  } else if (space == "paper") {
    points = dse::paper_design_space();
  } else if (space == "million") {
    // Decoded lazily: with --limit only the requested prefix is ever
    // materialized, so smoke runs touch a 10^6-point space for free.
    const dse::LazySpace lazy(dse::LazySpace::million_axes());
    const std::size_t count =
        limit == 0 ? lazy.size() : std::min(limit, lazy.size());
    lazy.decode_block(0, count, points);
    return points;
  } else {
    throw Error(ErrorCode::kConfig,
                "unknown space '" + space + "' (axis|reduced|paper|million)");
  }
  if (limit != 0 && points.size() > limit) points.resize(limit);
  return points;
}

dse::FailurePolicy parse_policy(const std::string& policy) {
  if (policy == "failfast") return dse::FailurePolicy::kFailFast;
  if (policy == "skip") return dse::FailurePolicy::kSkip;
  if (policy == "retry") return dse::FailurePolicy::kRetry;
  throw Error(ErrorCode::kConfig,
              "unknown failure policy '" + policy + "' (failfast|skip|retry)");
}

dse::MemoryKind parse_kind(const std::string& kind) {
  if (kind == "dram") return dse::MemoryKind::kDram;
  if (kind == "nvm") return dse::MemoryKind::kNvm;
  if (kind == "hybrid") return dse::MemoryKind::kHybrid;
  throw Error("unknown memory kind '" + kind + "'");
}

/// Publishes the trace as <run-dir>/trace.gmdt unless a readable store
/// is already there (a resumed run reuses the published one, keeping
/// the sweep identity stable across supervisor restarts).
std::string publish_run_trace(const std::string& run_dir,
                              std::span<const cpusim::MemoryEvent> trace) {
  std::filesystem::create_directories(run_dir);
  const std::string store_path = run_dir + "/trace.gmdt";
  if (std::filesystem::exists(store_path)) {
    try {
      const tracestore::TraceStoreReader probe(store_path);
      return store_path;  // complete store from a previous run
    } catch (const Error&) {
      std::cout << "rewriting unreadable trace store '" << store_path
                << "'\n";
    }
  }
  tracestore::write_trace_store(store_path, trace);
  return store_path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("memory_explorer", "sweep one memory design axis");
  cli.add_option("workload", "bfs", "bfs | dobfs | pagerank | cc | sssp | triangles")
      .add_option("vertices", "256", "graph size")
      .add_option("space", "axis",
                  "point set: axis (one --axis slice) | reduced | paper | "
                  "million (lazy 10^6-point grid)")
      .add_option("limit", "0",
                  "sweep only the first N points of the space (0: all)")
      .add_option("axis", "ctrl", "axis to sweep: ctrl | cpu | channels | trcd")
      .add_option("kind", "nvm", "memory technology: dram | nvm | hybrid")
      .add_option("trace-dir", "",
                  "round-trip the trace through files in this directory")
      .add_option("trace-format", "text",
                  "on-disk trace container under --trace-dir: text | gmdt")
      .add_option("policy", "failfast",
                  "failure policy: failfast | skip | retry")
      .add_option("retries", "3", "max attempts per point under --policy retry")
      .add_option("deadline-ms", "0",
                  "per-point wall budget in milliseconds (0: unlimited)")
      .add_option("checkpoint", "",
                  "journal completed rows to this file (one append per row)")
      .add_flag("resume", "resume from an existing --checkpoint journal")
      .add_option("sample-fraction", "1.0",
                  "chunk-sampled sweep: fraction of trace chunks per point "
                  "(1.0 = exhaustive; hybrid points stay exhaustive)")
      .add_option("sample-seed", "1", "seed of the sampled chunk subset")
      .add_option("sample-chunk-events", "10000",
                  "events per sampling window for in-memory traces")
      .add_option("csv", "", "also save ok rows as a CSV table here")
      .add_option("run-dir", "",
                  "distributed mode: shared run directory (leases, "
                  "journals, trace.gmdt)")
      .add_option("distributed", "4",
                  "worker processes to fork under --run-dir")
      .add_flag("supervise-only",
                "plan/monitor/merge only; workers join via sweep_worker")
      .add_option("shard-points", "16", "points per claimable shard")
      .add_option("lease-ttl-ms", "2000",
                  "expire a lease whose heartbeat stalls this long")
      .add_option("kill-workers", "0",
                  "fault injection: this many forked workers _Exit(137)")
      .add_option("kill-after-points", "0",
                  "fault injection: ...after journaling this many points");
  try {
    if (!cli.parse(argc, argv)) return 0;

    dse::WorkloadSpec spec;
    spec.graph_vertices = static_cast<std::uint32_t>(cli.get_int("vertices"));
    spec.workload = cli.get_string("workload");
    const auto trace = dse::generate_workload_trace(spec);
    std::cout << "workload '" << spec.workload << "': " << trace.size()
              << " memory events\n\n";

    const auto points = build_points(
        cli.get_string("space"), cli.get_string("axis"),
        parse_kind(cli.get_string("kind")),
        static_cast<std::size_t>(cli.get_int("limit")));
    dse::SweepOptions sweep;
    sweep.failure_policy = parse_policy(cli.get_string("policy"));
    sweep.max_attempts =
        static_cast<std::uint32_t>(cli.get_int("retries"));
    sweep.point_wall_budget =
        std::chrono::milliseconds(cli.get_int("deadline-ms"));
    sweep.checkpoint_path = cli.get_string("checkpoint");
    sweep.resume = cli.get_flag("resume");
    sweep.sample_fraction = cli.get_double("sample-fraction");
    sweep.sample_seed = static_cast<std::uint64_t>(cli.get_int("sample-seed"));
    sweep.sampling_chunk_events =
        static_cast<std::size_t>(cli.get_int("sample-chunk-events"));

    const std::string run_dir = cli.get_string("run-dir");
    const std::string trace_dir = cli.get_string("trace-dir");
    std::vector<dse::SweepRow> rows;
    if (!run_dir.empty()) {
      // --- distributed: lease-based multi-process run ------------------
      const std::string store_path = publish_run_trace(run_dir, trace);
      const tracestore::TraceStoreReader store(store_path);
      std::cout << "run dir '" << run_dir << "': " << points.size()
                << " points, trace store " << store.num_chunks()
                << " chunks\n";

      dse::DistributedStats stats;
      if (cli.get_flag("supervise-only")) {
        dse::SupervisorOptions sup;
        sup.shard_size = static_cast<std::size_t>(cli.get_int("shard-points"));
        sup.lease_ttl =
            std::chrono::milliseconds(cli.get_int("lease-ttl-ms"));
        const dse::JournalKey key = dse::sweep_identity(
            dse::make_journal_key(points, store), sweep);
        rows = dse::supervise({run_dir}, points, key, sup, &stats);
      } else {
        dse::DistributedSweepOptions dist;
        dist.num_workers =
            static_cast<std::size_t>(cli.get_int("distributed"));
        dist.shard_size = static_cast<std::size_t>(cli.get_int("shard-points"));
        dist.lease_ttl = std::chrono::milliseconds(cli.get_int("lease-ttl-ms"));
        dist.kill_workers =
            static_cast<std::size_t>(cli.get_int("kill-workers"));
        dist.kill_after_points =
            static_cast<std::size_t>(cli.get_int("kill-after-points"));
        rows = dse::run_sweep_distributed(points, store, run_dir, sweep, dist,
                                          &stats);
      }
      std::cout << "distributed: " << stats.shards << " shards, "
                << stats.tasks_issued << " tasks issued, "
                << stats.leases_expired << " leases expired, "
                << stats.workers_respawned << " workers respawned, "
                << stats.duplicate_rows << " duplicate rows merged\n\n";
    } else if (trace_dir.empty()) {
      rows = dse::run_sweep(points, trace, sweep);
    } else {
      std::filesystem::create_directories(trace_dir);
      const std::string gem5_path = trace_dir + "/explorer.gem5.txt";
      {
        std::ofstream out(gem5_path);
        GMD_REQUIRE(out.good(), "cannot write '" << gem5_path << "'");
        trace::Gem5TraceWriter writer(out);
        for (const auto& event : trace) writer.on_event(event);
      }
      const std::string trace_format = cli.get_string("trace-format");
      if (trace_format == "gmdt") {
        const std::string store_path = trace_dir + "/explorer.gmdt";
        trace::convert_gem5_to_gmdt(gem5_path, store_path);
        const tracestore::TraceStoreReader store(store_path);
        std::cout << "trace store: " << store.num_chunks() << " chunks, "
                  << store.file_bytes() << " bytes\n\n";
        rows = dse::run_sweep(points, store, sweep);
      } else if (trace_format == "text") {
        const std::string nvmain_path = trace_dir + "/explorer.nvmain.txt";
        trace::convert_gem5_to_nvmain(gem5_path, nvmain_path);
        std::ifstream in(nvmain_path);
        GMD_REQUIRE(in.good(), "cannot read '" << nvmain_path << "'");
        const auto events = trace::read_nvmain_trace(in);
        rows = dse::run_sweep(points, events, sweep);
      } else {
        throw Error(ErrorCode::kConfig,
                    "--trace-format expects 'text' or 'gmdt', got '" +
                        trace_format + "'");
      }
    }

    std::cout << std::left << std::setw(28) << "configuration"
              << std::right << std::setw(10) << "power(W)" << std::setw(12)
              << "bw(MB/s)" << std::setw(10) << "lat(cy)" << std::setw(12)
              << "totlat(cy)" << std::setw(12) << "rd/ch" << std::setw(12)
              << "wr/ch" << "\n";
    for (const auto& row : rows) {
      if (!row.ok()) {
        std::cout << std::left << std::setw(28) << row.point.id()
                  << "  <" << dse::to_string(row.outcome) << "> ["
                  << to_string(row.error_code) << "] " << row.error << "\n";
        continue;
      }
      const auto& m = row.metrics;
      std::cout << std::left << std::setw(28) << row.point.id() << std::right
                << std::fixed << std::setprecision(4) << std::setw(10)
                << m.avg_power_per_channel_w << std::setprecision(1)
                << std::setw(12) << m.avg_bandwidth_per_bank_mbs
                << std::setw(10) << m.avg_latency_cycles << std::setw(12)
                << m.avg_total_latency_cycles << std::setw(12)
                << m.avg_reads_per_channel << std::setw(12)
                << m.avg_writes_per_channel << "\n";
      if (row.sampled()) {
        const auto& ci = row.metric_ci;
        std::cout << std::setprecision(1) << "  ci(95% joint): power ["
                  << ci[0].lo << ", " << ci[0].hi << "] bw [" << ci[1].lo
                  << ", " << ci[1].hi << "] lat [" << ci[2].lo << ", "
                  << ci[2].hi << "] totlat [" << ci[3].lo << ", " << ci[3].hi
                  << "]\n";
      }
    }
    const std::string csv = cli.get_string("csv");
    if (!csv.empty()) {
      std::vector<dse::SweepRow> ok_rows;
      for (const auto& row : rows) {
        if (row.ok()) ok_rows.push_back(row);
      }
      // Same writer as the pipeline and the distributed supervisor, so
      // this CSV is byte-comparable against a run directory's sweep.csv.
      dse::sweep_to_table(ok_rows).save(csv);
      std::cout << "\nsaved " << ok_rows.size() << " ok rows to '" << csv
                << "'\n";
    }
    const dse::SweepHealth health = dse::summarize_health(rows);
    if (!health.all_ok()) {
      std::cout << "\nsweep health: " << health.summary() << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
