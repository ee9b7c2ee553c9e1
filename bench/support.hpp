#pragma once

/// \file support.hpp
/// Shared setup for the experiment-reproduction benches: the paper's
/// workload trace (GTGraph random graph, 1024 vertices, edge factor 16,
/// Graph500 BFS from a random source) and its 416-configuration sweep,
/// plus the per-run scratch directory the file-writing benches share.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workload.hpp"

namespace gmd::bench {

inline std::vector<cpusim::MemoryEvent> paper_trace(
    std::uint32_t vertices = 1024, const std::string& workload = "bfs") {
  return dse::generate_workload_trace(
      {.graph_vertices = vertices, .workload = workload});
}

inline std::vector<dse::SweepRow> paper_sweep(
    const std::vector<cpusim::MemoryEvent>& trace) {
  return dse::run_sweep(dse::paper_design_space(), trace);
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// `<temp dir>/<name>.<pid>`, created on construction and removed with
/// everything in it when the scope ends — the pid keeps concurrent runs
/// of one bench out of each other's files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "." + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace gmd::bench
