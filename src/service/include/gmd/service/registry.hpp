#pragma once

/// \file registry.hpp
/// The query service's quarantining registry of named, shared resources
/// (trace stores, deployed models).
///
/// A resource that fails checksum/load/use is *quarantined* rather than
/// retried inline: it is evicted from serving into a quarantined set,
/// lookups naming it fail fast with a typed `kUnavailable` carrying the
/// original failure, and it is re-probed at most once per probe
/// interval (lazily, on lookup or on a `health` poll — never in a hot
/// loop).  A probe reloads the resource from its registered path: success
/// restores it to serving, failure re-arms the interval.  A resource
/// registered without a path (in-process) is recovered only by
/// re-registration.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gmd/common/error.hpp"

namespace gmd::service {

/// One quarantined resource, as reported by the `health` verb.
struct QuarantinedResource {
  std::string name;  ///< Registered name (a trace alias or model name).
  std::string path;  ///< On-disk artifact probed for recovery.
  ErrorCode code = ErrorCode::kUnavailable;  ///< Original failure code.
  std::string reason;                        ///< Original failure message.
  std::uint64_t probes = 0;  ///< Completed re-probe attempts.
};

/// The protocol over resources of type T, shared by TraceLibrary and
/// ModelRegistry, which add registration on top.
template <typename T>
class Registry {
 public:
  using Handle = std::shared_ptr<const T>;
  /// Reloads a resource from its path for a re-probe; throws gmd::Error.
  using Loader = std::function<Handle(const std::string& path)>;

  /// The handle serving `name`.  Throws Error(kNotFound) listing the
  /// serving names, or Error(kUnavailable) when `name` is quarantined.
  /// A quarantined resource whose probe interval has elapsed gets one
  /// inline probe first.
  Handle find(const std::string& name) { return find_as(name, name); }

  /// Evicts `name` from serving into the quarantined set with the
  /// failure's code and reason, which `health` and later lookups report.
  /// Quarantining an already-quarantined name refreshes its recorded
  /// failure; an unknown name is a no-op.  Returns true if evicted.
  bool quarantine(const std::string& name, ErrorCode code,
                  const std::string& reason) {
    return evict(name, code, reason) != nullptr;
  }

  /// Minimum delay between re-probe attempts of one quarantined
  /// resource.  Zero probes on every lookup (tests only — production
  /// keeps this large so a rotten resource is never retried in a loop).
  void set_probe_interval(std::chrono::milliseconds interval) {
    std::lock_guard<std::mutex> lock(mutex_);
    probe_interval_ = interval;
  }

  /// Re-probes every quarantined resource whose interval elapsed (the
  /// `health` verb calls this, making health polls the periodic
  /// prober).  Returns the number restored to serving.
  std::size_t probe_due() {
    std::vector<std::string> due;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto now = std::chrono::steady_clock::now();
      for (const auto& [name, q] : quarantined_) {
        if (now >= q.next_probe) due.push_back(name);
      }
    }
    std::size_t restored = 0;
    for (const std::string& name : due) restored += try_probe(name) ? 1 : 0;
    return restored;
  }

  std::vector<QuarantinedResource> quarantined() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<QuarantinedResource> out;
    for (const auto& [name, q] : quarantined_) out.push_back(q.info);
    return out;
  }

  std::size_t quarantined_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_.size();
  }

  /// Number of names serving.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return serving_.size();
  }

 protected:
  /// `noun` names the resource kind in error messages ("trace").
  Registry(std::string noun, Loader loader)
      : noun_(std::move(noun)), loader_(std::move(loader)) {}

  /// find(name), with messages calling the resource `shown` (the
  /// caller's spelling when it resolved some other key to `name`).
  Handle find_as(const std::string& name, const std::string& shown) {
    // Two rounds at most: one inline recovery attempt, then the lookup
    // either serves the restored handle or fails typed — never a loop.
    for (int round = 0; round < 2; ++round) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = serving_.find(name); it != serving_.end()) {
          return it->second.handle;
        }
        const auto it = quarantined_.find(name);
        if (it == quarantined_.end()) {
          std::string known;
          for (const auto& [key, entry] : serving_) {
            known += (known.empty() ? "" : ", ") + key;
          }
          throw Error(ErrorCode::kNotFound,
                      noun_ + " '" + shown + "' is not registered (known: " +
                          (known.empty() ? "none" : known) + ")");
        }
        const auto now = std::chrono::steady_clock::now();
        if (round > 0 || now < it->second.next_probe) {
          throw unavailable(shown, it->second.info);
        }
      }
      try_probe(name);
    }
    throw Error(ErrorCode::kUnavailable,
                noun_ + " '" + shown + "' is unavailable");
  }

  /// Serves `handle` under `name`, replacing any registration (in-flight
  /// users keep their handle).  Explicit registration is manual
  /// recovery: it clears quarantine.  Empty `path`: nothing to re-probe.
  void put(const std::string& name, const std::string& path, Handle handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    quarantined_.erase(name);
    serving_[name] = Entry{path, std::move(handle)};
  }

  /// The handle serving `name`, or null; never probes.
  Handle serving(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = serving_.find(name);
    return it == serving_.end() ? nullptr : it->second.handle;
  }

  /// quarantine() returning the evicted handle (null: nothing evicted).
  Handle evict(const std::string& name, ErrorCode code,
               const std::string& reason) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = serving_.find(name);
    if (it == serving_.end()) {
      if (const auto q = quarantined_.find(name); q != quarantined_.end()) {
        q->second.info.code = code;
        q->second.info.reason = reason;
      }
      return nullptr;
    }
    Handle evicted = std::move(it->second.handle);
    quarantined_[name] = Quarantine{
        QuarantinedResource{name, it->second.path, code, reason, 0},
        std::chrono::steady_clock::now() + probe_interval_};
    serving_.erase(it);
    return evicted;
  }

 private:
  struct Entry {
    std::string path;  ///< Empty: registered in-process.
    Handle handle;
  };
  struct Quarantine {
    QuarantinedResource info;
    std::chrono::steady_clock::time_point next_probe;
  };

  Error unavailable(const std::string& shown,
                    const QuarantinedResource& info) const {
    return Error(ErrorCode::kUnavailable,
                 noun_ + " '" + shown + "' is quarantined (" +
                     std::string(to_string(info.code)) + ": " + info.reason +
                     ")");
  }

  /// Reloads the quarantined resource behind `name` if its interval has
  /// elapsed.  Returns true when it serves afterwards.
  bool try_probe(const std::string& name) {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = quarantined_.find(name);
      if (it == quarantined_.end()) return serving_.count(name) > 0;
      const auto now = std::chrono::steady_clock::now();
      if (now < it->second.next_probe) return false;
      // Claim this probe window before dropping the lock: concurrent
      // lookups fail fast instead of piling onto the same reload.
      it->second.next_probe = now + probe_interval_;
      ++it->second.info.probes;
      path = it->second.info.path;
      if (path.empty()) {
        it->second.info.reason =
            "registered in-process; re-register to recover";
        return false;
      }
    }
    try {
      Handle handle = loader_(path);
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = quarantined_.find(name);
      if (it == quarantined_.end()) return serving_.count(name) > 0;
      quarantined_.erase(it);
      serving_[name] = Entry{path, std::move(handle)};
      return true;
    } catch (const Error& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = quarantined_.find(name); it != quarantined_.end()) {
        it->second.info.code = e.code();
        it->second.info.reason = e.what();
      }
      return false;
    }
  }

  const std::string noun_;
  const Loader loader_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> serving_;
  std::map<std::string, Quarantine> quarantined_;
  std::chrono::milliseconds probe_interval_{5000};
};

}  // namespace gmd::service
