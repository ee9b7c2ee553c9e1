#include "gmd/service/trace_library.hpp"

#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::service {

namespace {

/// Runs `build` under build-once semantics: the first caller for `key`
/// installs a promise and builds outside the lock; everyone else waits
/// on the shared future.  A failed build is evicted so a later call can
/// retry, and the exception propagates to every waiter of that round.
template <typename Map, typename Key, typename Build>
auto build_once(std::mutex& mutex, Map& cache, const Key& key, Build build)
    -> decltype(build()) {
  using Value = decltype(build());
  std::promise<Value> promise;
  std::shared_future<Value> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it == cache.end()) {
      future = promise.get_future().share();
      cache.emplace(key, future);
      builder = true;
    } else {
      future = it->second;
    }
  }
  if (builder) {
    try {
      promise.set_value(build());
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mutex);
      cache.erase(key);
    }
  }
  return future.get();
}

std::string quarantined_message(const std::string& kind,
                                const std::string& name,
                                const QuarantinedResource& info) {
  return kind + " '" + name + "' is quarantined (" +
         std::string(to_string(info.code)) + ": " + info.reason + ")";
}

}  // namespace

std::uint64_t TraceLibrary::register_store(const std::string& alias,
                                           const std::string& path) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, !alias.empty(),
                 "trace alias must be non-empty");
  // Map outside the lock: opening validates the header + directory and
  // may take a moment on a large store.
  auto reader = std::make_shared<const tracestore::TraceStoreReader>(path);
  const std::uint64_t checksum = reader->content_checksum();

  std::lock_guard<std::mutex> lock(mutex_);
  // Explicit re-registration is manual recovery: it clears quarantine.
  quarantined_.erase(alias);
  if (const auto it = by_alias_.find(alias); it != by_alias_.end()) {
    GMD_REQUIRE_AS(ErrorCode::kConfig, it->second.checksum == checksum,
                   "alias '" << alias
                             << "' is already registered for different trace "
                                "content (checksum "
                             << to_hex16(it->second.checksum) << ")");
    return checksum;  // Same content: idempotent re-registration.
  }
  Entry entry{alias, path, checksum, std::move(reader)};
  // First registration wins for checksum lookup; a second alias for the
  // same content shares the existing mapping instead of re-mmapping.
  if (const auto it = by_checksum_.find(checksum); it != by_checksum_.end()) {
    entry.reader = it->second.reader;
  } else {
    by_checksum_.emplace(checksum, entry);
  }
  by_alias_.emplace(alias, std::move(entry));
  return checksum;
}

std::shared_ptr<const tracestore::TraceStoreReader> TraceLibrary::find(
    const std::string& name) {
  // Two rounds at most: a quarantined store whose probe interval has
  // elapsed gets exactly one inline recovery attempt, then the lookup
  // either serves the restored reader or fails typed — never a loop.
  for (int round = 0; round < 2; ++round) {
    std::string quarantined_alias;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = by_alias_.find(name); it != by_alias_.end()) {
        return it->second.reader;
      }
      // A 16-hex-digit name may be a content checksum.
      const std::optional<std::uint64_t> checksum = parse_hex16(name);
      if (checksum) {
        if (const auto it = by_checksum_.find(*checksum);
            it != by_checksum_.end()) {
          return it->second.reader;
        }
        for (const auto& [alias, q] : quarantined_) {
          if (q.checksum == *checksum) {
            quarantined_alias = alias;
            break;
          }
        }
      }
      if (quarantined_alias.empty() && quarantined_.count(name) > 0) {
        quarantined_alias = name;
      }
      if (quarantined_alias.empty()) {
        std::string known;
        for (const auto& [alias, entry] : by_alias_) {
          if (!known.empty()) known += ", ";
          known += alias;
        }
        throw Error(ErrorCode::kNotFound,
                    "trace '" + name + "' is not registered (known: " +
                        (known.empty() ? "none" : known) + ")");
      }
      const Quarantine& q = quarantined_.at(quarantined_alias);
      if (round > 0 || std::chrono::steady_clock::now() < q.next_probe) {
        throw Error(ErrorCode::kUnavailable,
                    quarantined_message("trace", name, q.info));
      }
    }
    if (!try_probe(quarantined_alias)) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = quarantined_.find(quarantined_alias);
          it != quarantined_.end()) {
        throw Error(ErrorCode::kUnavailable,
                    quarantined_message("trace", name, it->second.info));
      }
      // The probe lost a race with a restore; retry the lookup.
    }
  }
  throw Error(ErrorCode::kUnavailable, "trace '" + name + "' is unavailable");
}

bool TraceLibrary::quarantine(const std::string& name, ErrorCode code,
                              const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantine_locked(name, code, reason);
}

bool TraceLibrary::quarantine_locked(const std::string& name, ErrorCode code,
                                     const std::string& reason) {
  std::uint64_t checksum = 0;
  bool resolved = false;
  if (const auto it = by_alias_.find(name); it != by_alias_.end()) {
    checksum = it->second.checksum;
    resolved = true;
  } else if (const auto parsed = parse_hex16(name)) {
    checksum = *parsed;
    resolved = by_checksum_.count(checksum) > 0;
  }
  if (!resolved) {
    // Already quarantined (or unknown): refresh the recorded failure so
    // health reports the freshest reason, but evict nothing.
    if (const auto it = quarantined_.find(name); it != quarantined_.end()) {
      it->second.info.code = code;
      it->second.info.reason = reason;
    }
    return false;
  }
  // Content is bad, so every alias sharing it goes down together.
  std::vector<std::string> aliases;
  for (const auto& [alias, entry] : by_alias_) {
    if (entry.checksum == checksum) aliases.push_back(alias);
  }
  const auto next_probe = std::chrono::steady_clock::now() + probe_interval_;
  for (const std::string& alias : aliases) {
    const Entry& entry = by_alias_.at(alias);
    Quarantine q;
    q.info = QuarantinedResource{alias, entry.path, code, reason, 0};
    q.checksum = checksum;
    q.next_probe = next_probe;
    quarantined_[alias] = std::move(q);
    by_alias_.erase(alias);
  }
  by_checksum_.erase(checksum);
  drop_feeds_locked(checksum);
  return !aliases.empty();
}

void TraceLibrary::drop_feeds_locked(std::uint64_t checksum) {
  raw_cache_.erase(checksum);
  for (auto it = predecoded_cache_.begin(); it != predecoded_cache_.end();) {
    it = it->first.first == checksum ? predecoded_cache_.erase(it)
                                     : std::next(it);
  }
}

void TraceLibrary::set_probe_interval(std::chrono::milliseconds interval) {
  std::lock_guard<std::mutex> lock(mutex_);
  probe_interval_ = interval;
}

bool TraceLibrary::try_probe(const std::string& alias) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = quarantined_.find(alias);
    if (it == quarantined_.end()) return by_alias_.count(alias) > 0;
    const auto now = std::chrono::steady_clock::now();
    if (now < it->second.next_probe) return false;
    // Claim this probe window before dropping the lock: concurrent
    // lookups fail fast instead of piling onto the same verify scan.
    it->second.next_probe = now + probe_interval_;
    ++it->second.info.probes;
    path = it->second.info.path;
  }
  try {
    auto reader = std::make_shared<const tracestore::TraceStoreReader>(path);
    reader->verify();  // full per-chunk checksum scan
    const std::uint64_t checksum = reader->content_checksum();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = quarantined_.find(alias);
    if (it == quarantined_.end()) return by_alias_.count(alias) > 0;
    quarantined_.erase(it);
    Entry entry{alias, path, checksum, std::move(reader)};
    if (const auto cit = by_checksum_.find(checksum);
        cit != by_checksum_.end()) {
      entry.reader = cit->second.reader;
    } else {
      by_checksum_.emplace(checksum, entry);
    }
    by_alias_.emplace(alias, std::move(entry));
    return true;
  } catch (const Error& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = quarantined_.find(alias); it != quarantined_.end()) {
      it->second.info.code = e.code();
      it->second.info.reason = e.what();
    }
    return false;
  }
}

std::size_t TraceLibrary::probe_due() {
  std::vector<std::string> due;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [alias, q] : quarantined_) {
      if (now >= q.next_probe) due.push_back(alias);
    }
  }
  std::size_t restored = 0;
  for (const std::string& alias : due) {
    if (try_probe(alias)) ++restored;
  }
  return restored;
}

std::vector<QuarantinedResource> TraceLibrary::quarantined() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QuarantinedResource> out;
  out.reserve(quarantined_.size());
  for (const auto& [alias, q] : quarantined_) out.push_back(q.info);
  return out;
}

std::size_t TraceLibrary::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_.size();
}

std::shared_ptr<const std::vector<cpusim::MemoryEvent>>
TraceLibrary::raw_events(const tracestore::TraceStoreReader& store) {
  const std::uint64_t key = store.content_checksum();
  return build_once(mutex_, raw_cache_, key, [&store] {
    return std::make_shared<const std::vector<cpusim::MemoryEvent>>(
        store.read_all());
  });
}

std::shared_ptr<const memsim::PredecodedTrace> TraceLibrary::predecoded(
    const tracestore::TraceStoreReader& store,
    const memsim::MemoryConfig& config) {
  const std::pair<std::uint64_t, std::string> key{
      store.content_checksum(), memsim::PredecodedTrace::key(config)};
  return build_once(mutex_, predecoded_cache_, key, [&store, &config] {
    return std::make_shared<const memsim::PredecodedTrace>(
        dse::predecode(config, store));
  });
}

std::vector<TraceLibrary::Entry> TraceLibrary::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  out.reserve(by_alias_.size());
  for (const auto& [alias, entry] : by_alias_) out.push_back(entry);
  return out;
}

std::size_t TraceLibrary::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_alias_.size();
}

std::size_t TraceLibrary::cached_feeds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return raw_cache_.size() + predecoded_cache_.size();
}

}  // namespace gmd::service
