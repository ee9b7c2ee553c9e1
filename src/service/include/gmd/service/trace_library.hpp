#pragma once

/// \file trace_library.hpp
/// Shared trace handles for the query service.  Each GMDT store is
/// mmapped exactly once at registration and handed out as a shared
/// reader keyed by alias or content checksum; the expensive derived
/// feeds — the fully decoded event vector and per-decode-geometry
/// PredecodedTrace — are built once on first use and shared by every
/// concurrent request (build-once via shared_future, so two requests
/// racing on a cold feed block on one build instead of running two).

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/predecoded_trace.hpp"
#include "gmd/service/quarantine.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::service {

class TraceLibrary {
 public:
  /// One registered store.
  struct Entry {
    std::string alias;
    std::string path;
    std::uint64_t checksum = 0;  ///< TraceStoreReader::content_checksum().
    std::shared_ptr<const tracestore::TraceStoreReader> reader;
  };

  /// Maps the store at `path` (throws Error(kIo)/Error(kTrace) like the
  /// reader) and registers it under `alias`.  Re-registering an alias
  /// for the same content is a no-op; a different content under a
  /// taken alias throws Error(kConfig).  Returns the content checksum.
  std::uint64_t register_store(const std::string& alias,
                               const std::string& path);

  /// Looks up by alias or by 16-hex-digit content checksum.  Throws
  /// Error(kNotFound) naming the key and the registered aliases, or
  /// Error(kUnavailable) when the store is quarantined.  A quarantined
  /// store whose probe interval has elapsed is re-probed inline first
  /// (full checksum verify) and restored on success.
  std::shared_ptr<const tracestore::TraceStoreReader> find(
      const std::string& name);

  /// Evicts the named store (and every alias sharing its content) from
  /// serving into the quarantined set, dropping its cached feeds.  The
  /// original failure's code + reason are reported by `health` and by
  /// the kUnavailable error subsequent lookups raise.  Quarantining an
  /// unknown name is a no-op.  Returns true if anything was evicted.
  bool quarantine(const std::string& name, ErrorCode code,
                  const std::string& reason);

  /// Minimum delay between re-probe attempts of one quarantined store.
  /// Zero probes on every lookup (tests only — production keeps this
  /// large so a rotten store is never retried in a hot loop).
  void set_probe_interval(std::chrono::milliseconds interval);

  /// Re-probes every quarantined store whose interval elapsed (the
  /// `health` verb calls this, making health polls the periodic prober).
  /// Returns the number of stores restored to serving.
  std::size_t probe_due();

  std::vector<QuarantinedResource> quarantined() const;
  std::size_t quarantined_count() const;

  /// The store's full decoded event stream, built once and shared.
  std::shared_ptr<const std::vector<cpusim::MemoryEvent>> raw_events(
      const tracestore::TraceStoreReader& store);

  /// A predecoded request stream for `config`'s decode geometry, built
  /// once per (store, decode key) and shared.
  std::shared_ptr<const memsim::PredecodedTrace> predecoded(
      const tracestore::TraceStoreReader& store,
      const memsim::MemoryConfig& config);

  std::vector<Entry> entries() const;
  std::size_t size() const;
  /// Cached derived feeds (decoded vectors + predecoded traces).
  std::size_t cached_feeds() const;

 private:
  using RawFuture =
      std::shared_future<std::shared_ptr<const std::vector<cpusim::MemoryEvent>>>;
  using PredecodedFuture =
      std::shared_future<std::shared_ptr<const memsim::PredecodedTrace>>;

  struct Quarantine {
    QuarantinedResource info;
    std::uint64_t checksum = 0;  ///< Content at eviction, for hex lookup.
    std::chrono::steady_clock::time_point next_probe;
  };

  /// Re-probes the quarantined store behind `alias` if its interval has
  /// elapsed.  Returns true when the store was restored to serving.
  bool try_probe(const std::string& alias);
  bool quarantine_locked(const std::string& alias, ErrorCode code,
                         const std::string& reason);
  void drop_feeds_locked(std::uint64_t checksum);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> by_alias_;
  std::map<std::uint64_t, Entry> by_checksum_;
  std::map<std::string, Quarantine> quarantined_;
  std::chrono::milliseconds probe_interval_{5000};
  std::map<std::uint64_t, RawFuture> raw_cache_;
  std::map<std::pair<std::uint64_t, std::string>, PredecodedFuture>
      predecoded_cache_;
};

}  // namespace gmd::service
