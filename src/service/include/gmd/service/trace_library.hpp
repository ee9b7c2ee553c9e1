#pragma once

/// \file trace_library.hpp
/// Shared trace handles for the query service.  Each GMDT store is
/// mmapped once at registration (a second alias of the same content
/// shares the mapping) and handed out as a shared reader keyed by alias
/// or content checksum, under the quarantine protocol of Registry (a
/// probe re-opens the store and verifies every chunk).  The expensive
/// derived state — a point's dse::Feed, built by dse::build_feed — is
/// built once per (store content, dse::feed_key) on first use and shared
/// by every concurrent request (build-once via shared_future, so two
/// requests racing on a cold feed block on one build instead of running
/// two).  The paper grid reaches four feed keys: two channel counts,
/// single-technology and hybrid.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "gmd/dse/design_point.hpp"
#include "gmd/dse/sweep.hpp"
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

  /// `point`'s dse::Feed, built once per (store content, dse::feed_key)
  /// and shared by every point of that key, whatever its clocks.
  std::shared_ptr<const dse::Feed> feed(
      const tracestore::TraceStoreReader& store, const dse::DesignPoint& point);

  /// Cached feeds: one per (store content, geometry) a request reached.
  std::size_t cached_feeds() const;

 private:
  using FeedFuture = std::shared_future<std::shared_ptr<const dse::Feed>>;

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
