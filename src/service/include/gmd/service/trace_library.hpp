#pragma once

/// \file trace_library.hpp
/// Shared trace handles for the query service.  Each GMDT store is
/// mmapped once at registration (a second alias of the same content
/// shares the mapping) and handed out as a shared reader keyed by alias
/// or content checksum, under the quarantine protocol of Registry (a
/// probe re-opens the store and verifies every chunk).  The expensive
/// derived feed — a point's predecoded request stream, or a static
/// hybrid's two predecoded sides — is built once per (store content,
/// clock-free geometry) on first use and shared by every concurrent
/// request (build-once via shared_future, so two requests racing on a
/// cold feed block on one build instead of running two).  The paper
/// grid reaches four geometries: two channel counts, single-technology
/// and hybrid.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "gmd/dse/design_point.hpp"
#include "gmd/memsim/predecoded_trace.hpp"
#include "gmd/service/registry.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::service {

class TraceLibrary : private Registry<tracestore::TraceStoreReader> {
 public:
  TraceLibrary();

  /// Maps the store at `path` (throws Error(kIo)/Error(kTrace) like the
  /// reader) and registers it under `alias`.  Re-registering an alias
  /// for the same content is a no-op; a different content under a
  /// taken alias throws Error(kConfig).  A second alias for content
  /// already mapped shares that mapping.  Returns the content checksum.
  std::uint64_t register_store(const std::string& alias,
                               const std::string& path);

  /// Looks up by alias or by 16-hex-digit content checksum, with
  /// Registry::find's errors and inline re-probe.
  std::shared_ptr<const tracestore::TraceStoreReader> find(
      const std::string& name);

  /// Registry::quarantine by alias or content checksum.  The content is
  /// bad, so every alias sharing it goes down, and its cached feeds are
  /// dropped.
  bool quarantine(const std::string& name, ErrorCode code,
                  const std::string& reason);

  using Registry::probe_due;
  using Registry::quarantined;
  using Registry::quarantined_count;
  using Registry::set_probe_interval;
  using Registry::size;

  /// The predecoded streams an exhaustive point replays: `single` for a
  /// single-technology point, or `dram` and `nvm`, the sides of
  /// dse::predecode_hybrid, for a hybrid one.  The other member(s) stay
  /// empty.
  struct Feed {
    memsim::PredecodedTrace single;
    memsim::PredecodedTrace dram;
    memsim::PredecodedTrace nvm;
  };
  /// `point`'s feed, built once per (store content, dse::feed_key) and
  /// shared by every point of that geometry, whatever its clocks.
  std::shared_ptr<const Feed> feed(const tracestore::TraceStoreReader& store,
                                   const dse::DesignPoint& point);

  /// Cached feeds: one per (store content, geometry) a request reached.
  std::size_t cached_feeds() const;

 private:
  using FeedFuture = std::shared_future<std::shared_ptr<const Feed>>;

  /// The first alias serving content `checksum`, or empty.
  std::string serving_alias_locked(std::uint64_t checksum) const;
  /// The alias `name` stands for: itself, or for a content checksum the
  /// first alias serving that content, else the first one quarantined
  /// with it.
  std::string alias_for_locked(const std::string& name) const;

  mutable std::mutex mutex_;
  /// Every alias ever registered, with its content checksum as
  /// registered or last evicted (a serving alias's handle is the truth).
  std::map<std::string, std::uint64_t> content_;
  std::map<std::pair<std::uint64_t, std::string>, FeedFuture> feeds_;
};

}  // namespace gmd::service
