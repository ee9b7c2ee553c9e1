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

/// A probe re-opens the store and scans every chunk's checksum.  The
/// restored alias serves this fresh mapping, never a twin's: the twin's
/// could be reported bad before the restore lands.
std::shared_ptr<const tracestore::TraceStoreReader> open_verified(
    const std::string& path) {
  auto reader = std::make_shared<const tracestore::TraceStoreReader>(path);
  reader->verify();
  return reader;
}

}  // namespace

TraceLibrary::TraceLibrary() : Registry("trace", open_verified) {}

std::uint64_t TraceLibrary::register_store(const std::string& alias,
                                           const std::string& path) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, !alias.empty(),
                 "trace alias must be non-empty");
  // Map outside the lock: opening validates the header + directory and
  // may take a moment on a large store.
  auto reader = std::make_shared<const tracestore::TraceStoreReader>(path);
  const std::uint64_t checksum = reader->content_checksum();

  std::lock_guard<std::mutex> lock(mutex_);
  if (const Handle taken = serving(alias)) {
    GMD_REQUIRE_AS(ErrorCode::kConfig, taken->content_checksum() == checksum,
                   "alias '" << alias
                             << "' is already registered for different trace "
                                "content (checksum "
                             << to_hex16(taken->content_checksum()) << ")");
    return checksum;  // Same content: idempotent re-registration.
  }
  content_[alias] = checksum;
  // One mapping per content: a second alias shares the first's.
  const std::string twin = serving_alias_locked(checksum);
  put(alias, path, twin.empty() ? std::move(reader) : serving(twin));
  return checksum;
}

std::shared_ptr<const tracestore::TraceStoreReader> TraceLibrary::find(
    const std::string& name) {
  if (!parse_hex16(name)) return Registry::find(name);
  std::unique_lock<std::mutex> lock(mutex_);
  const std::string alias = alias_for_locked(name);
  lock.unlock();  // never held across a probe's verify scan
  return find_as(alias, name);
}

bool TraceLibrary::quarantine(const std::string& name, ErrorCode code,
                              const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string first = alias_for_locked(name);
  const Handle bad = evict(first, code, reason);
  if (bad == nullptr) return false;
  // The content is bad, so every alias serving it goes down together.
  const std::uint64_t checksum = bad->content_checksum();
  content_[first] = checksum;
  for (std::string alias; !(alias = serving_alias_locked(checksum)).empty();) {
    evict(alias, code, reason);
    content_[alias] = checksum;
  }
  for (auto it = feeds_.begin(); it != feeds_.end();) {
    it = it->first.first == checksum ? feeds_.erase(it) : std::next(it);
  }
  return true;
}

std::string TraceLibrary::serving_alias_locked(std::uint64_t checksum) const {
  for (const auto& [alias, content] : content_) {
    const Handle mapped = serving(alias);
    if (mapped != nullptr && mapped->content_checksum() == checksum) {
      return alias;
    }
  }
  return {};
}

std::string TraceLibrary::alias_for_locked(const std::string& name) const {
  const std::optional<std::uint64_t> checksum = parse_hex16(name);
  if (!checksum || content_.count(name) > 0) return name;
  if (std::string alias = serving_alias_locked(*checksum); !alias.empty()) {
    return alias;
  }
  for (const auto& [alias, content] : content_) {
    if (content == *checksum && serving(alias) == nullptr) return alias;
  }
  return name;
}

std::shared_ptr<const dse::Feed> TraceLibrary::feed(
    const tracestore::TraceStoreReader& store, const dse::DesignPoint& point) {
  const std::pair<std::uint64_t, std::string> key{store.content_checksum(),
                                                  dse::feed_key(point)};
  return build_once(mutex_, feeds_, key, [&store, &point] {
    return std::make_shared<const dse::Feed>(dse::build_feed(point, store));
  });
}

std::size_t TraceLibrary::cached_feeds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return feeds_.size();
}

}  // namespace gmd::service
