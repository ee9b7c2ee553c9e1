#include "gmd/service/client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"

namespace gmd::service {

namespace {

/// A write to a server that died mid-request raises SIGPIPE, whose
/// default disposition kills the whole client process.  Resilience
/// requires the write to fail with EPIPE instead, so the first client
/// constructed flips the disposition once, process-wide.
void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/// Deterministic jitter in [0, backoff/2]: uniform draw from the FNV
/// mix of (seed, attempt) so a seeded chaos run replays exactly.
std::chrono::milliseconds jitter(std::uint64_t seed, int attempt,
                                 std::chrono::milliseconds backoff) {
  const auto half = backoff.count() / 2;
  if (seed == 0 || half <= 0) return std::chrono::milliseconds{0};
  Fnv1a h;
  h.mix(seed);
  h.mix(static_cast<std::uint64_t>(attempt));
  return std::chrono::milliseconds(
      static_cast<long long>(h.state % static_cast<std::uint64_t>(half + 1)));
}

}  // namespace

PipeClient::PipeClient(const Options& options) : options_(options) {
  ignore_sigpipe_once();
  spawn();
}

void PipeClient::spawn() {
  int to_child[2];    // parent writes -> child stdin
  int from_child[2];  // child stdout -> parent reads
  GMD_REQUIRE_AS(ErrorCode::kIo, ::pipe(to_child) == 0, "pipe failed");
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw Error(ErrorCode::kIo, "pipe failed");
  }

  const pid_t pid = ::fork();
  GMD_REQUIRE_AS(ErrorCode::kIo, pid >= 0, "fork failed");
  if (pid == 0) {
    // Child: wire the pipe ends onto stdin/stdout and exec the server.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(options_.server_path.c_str()));
    for (const std::string& arg : options_.args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(options_.server_path.c_str(), argv.data());
    ::_Exit(127);  // exec failed
  }

  ::close(to_child[0]);
  ::close(from_child[1]);
  stdin_fd_ = to_child[1];
  stdout_fd_ = from_child[0];
  pid_ = pid;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reader_done_ = false;
    reaped_ = false;
    exit_code_ = -1;
  }
  const int reader_fd = stdout_fd_;
  reader_ = std::thread([this, reader_fd] { reader_loop(reader_fd); });
}

PipeClient::~PipeClient() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
    if (reaped_) {
      // close_and_wait() already shut everything down.
      return;
    }
  }
  // Abrupt teardown: kill rather than drain.
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (pid_ > 0) {
    ::kill(static_cast<pid_t>(pid_), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  }
  if (reader_.joinable()) reader_.join();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void PipeClient::reader_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF (server exited/drained) or error.
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      try {
        Json response = Json::parse(line);
        const Json& id = response.at("id");
        if (id.is_number()) {
          std::lock_guard<std::mutex> lock(mutex_);
          responses_[static_cast<std::uint64_t>(id.as_number())] =
              std::move(response);
          cv_.notify_all();
        }
        // Responses without a numeric id (none in this protocol) drop.
      } catch (const Error&) {
        // A torn/non-JSON line is a server bug; fail everything that is
        // currently in flight with a typed error rather than leaving
        // waiters blocked hoping for a well-formed line that may never
        // come.
        std::lock_guard<std::mutex> lock(mutex_);
        fail_pending_locked(
            ErrorCode::kIo,
            "server emitted a malformed response line: " + line);
      }
    }
    buffer.erase(0, start);
  }
  // The pipe is gone.  A mid-buffer fragment without its newline is a
  // torn response; either way nothing in flight can be answered now.
  std::lock_guard<std::mutex> lock(mutex_);
  reader_done_ = true;
  if (!buffer.empty()) {
    fail_pending_locked(ErrorCode::kIo,
                        "server died mid-response (torn line: " + buffer + ")");
  } else {
    fail_pending_locked(ErrorCode::kUnavailable,
                        closing_ ? "server exited during drain"
                                 : "server closed the pipe before answering");
  }
  if (!closing_) record_death_locked();
  cv_.notify_all();
}

void PipeClient::fail_pending_locked(ErrorCode code,
                                     const std::string& reason) {
  for (const std::uint64_t id : pending_) {
    if (responses_.count(id) == 0) failed_.emplace(id, std::pair{code, reason});
  }
  pending_.clear();
  cv_.notify_all();
}

void PipeClient::record_death_locked() {
  ++consecutive_deaths_;
  if (consecutive_deaths_ >= options_.retry.circuit_threshold) {
    circuit_open_until_ =
        std::chrono::steady_clock::now() + options_.retry.circuit_cooldown;
  }
}

void PipeClient::check_circuit_locked() {
  if (options_.retry.circuit_threshold <= 0 ||
      consecutive_deaths_ < options_.retry.circuit_threshold) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < circuit_open_until_) {
    throw Error(ErrorCode::kUnavailable,
                "circuit breaker open after " +
                    std::to_string(consecutive_deaths_) +
                    " consecutive server deaths");
  }
  // Cooldown elapsed: let this request through as the half-open probe
  // and hold everyone else back for another cooldown.  Its success
  // resets the death counter (closing the circuit); a further death
  // re-opens it.
  circuit_open_until_ = now + options_.retry.circuit_cooldown;
}

std::uint64_t PipeClient::send(Json body) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    check_circuit_locked();
    id = next_id_++;
    pending_.insert(id);
  }
  body["id"] = id;
  const std::string line = body.dump() + "\n";
  std::lock_guard<std::mutex> lock(write_mutex_);
  const auto fail_send = [&](ErrorCode code, const std::string& message) {
    std::lock_guard<std::mutex> state_lock(mutex_);
    pending_.erase(id);
    failed_.erase(id);  // the throw below reports it; nobody will wait
    throw Error(code, message);
  };
  if (stdin_fd_ < 0) {
    fail_send(ErrorCode::kUnavailable, "client connection already closed");
  }
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(stdin_fd_, line.data() + written, line.size() - written);
    if (n <= 0) {
      const int err = errno;
      fail_send(err == EPIPE ? ErrorCode::kUnavailable : ErrorCode::kIo,
                std::string("write to server failed: ") + std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  return id;
}

Json PipeClient::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this, id] {
    return responses_.count(id) != 0 || failed_.count(id) != 0 || reader_done_;
  });
  if (const auto it = responses_.find(id); it != responses_.end()) {
    Json response = std::move(it->second);
    responses_.erase(it);
    pending_.erase(id);
    failed_.erase(id);
    consecutive_deaths_ = 0;  // an answer means the server is alive
    return response;
  }
  if (const auto it = failed_.find(id); it != failed_.end()) {
    const Error error(it->second.first, it->second.second);
    failed_.erase(it);
    throw error;
  }
  pending_.erase(id);
  throw Error(ErrorCode::kUnavailable,
              "server exited before answering request " + std::to_string(id));
}

Json PipeClient::request(Json body) { return wait(send(std::move(body))); }

Json PipeClient::request_with_retry(Json body, int* attempts_out) {
  const RetryOptions& retry = options_.retry;
  const int attempts = std::max(1, retry.max_attempts);
  const bool budgeted = retry.budget.count() > 0;
  const auto start = std::chrono::steady_clock::now();
  const auto remaining_budget = [&] {
    return retry.budget - std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start);
  };

  auto backoff = retry.initial_backoff;
  Json last_response;
  bool have_response = false;
  Error last_error(ErrorCode::kUnavailable, "no attempt made");

  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempts_out != nullptr) *attempts_out = attempt;

    Json attempt_body = body;
    if (budgeted) {
      const auto remaining = remaining_budget();
      if (remaining.count() <= 0) {
        throw Error(ErrorCode::kTimeout,
                    "retry budget of " + std::to_string(retry.budget.count()) +
                        "ms exhausted after " + std::to_string(attempt - 1) +
                        " attempts");
      }
      // Per-attempt deadline accounting: never ask the server for more
      // time than the caller's overall budget has left.
      const double requested = attempt_body.number_or("deadline_ms", 0.0);
      const auto remaining_ms = static_cast<double>(remaining.count());
      if (requested <= 0.0 || requested > remaining_ms) {
        attempt_body["deadline_ms"] = remaining_ms;
      }
    }

    std::uint64_t seen_generation = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen_generation = generation_;
    }

    bool transport_failure = false;
    try {
      Json response = wait(send(std::move(attempt_body)));
      if (response.bool_or("ok", false)) return response;
      const Json& error = response.at("error");
      const std::string code =
          error.is_object() ? error.string_or("code", "") : std::string();
      if (code != "overloaded" && code != "unavailable") {
        return response;  // non-retryable error: the caller decides
      }
      last_response = std::move(response);
      have_response = true;
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kInvalidData) throw;  // never retried
      if (circuit_open()) throw;  // breaker is fast-failing: stop here
      last_error = e;
      have_response = false;
      transport_failure = true;
    }

    if (attempt == attempts) break;
    if (transport_failure) {
      if (!retry.restart_on_death) throw last_error;
      restart(seen_generation);
    }

    auto delay = backoff + jitter(retry.jitter_seed, attempt, backoff);
    if (budgeted) {
      const auto remaining = remaining_budget();
      if (remaining.count() <= 0) {
        throw Error(ErrorCode::kTimeout,
                    "retry budget of " + std::to_string(retry.budget.count()) +
                        "ms exhausted after " + std::to_string(attempt) +
                        " attempts");
      }
      delay = std::min(delay, remaining);
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    backoff = std::min(
        std::chrono::milliseconds(static_cast<long long>(
            static_cast<double>(backoff.count()) *
            std::max(1.0, retry.backoff_multiplier))),
        retry.max_backoff);
    backoff = std::max(backoff, std::chrono::milliseconds{1});
  }

  if (have_response) return last_response;
  throw last_error;
}

void PipeClient::restart(std::uint64_t seen_generation) {
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (generation_ != seen_generation) {
      return;  // another thread already replaced this connection
    }
  }
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  bool already_reaped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    already_reaped = reaped_;
  }
  if (pid_ > 0 && !already_reaped) {
    ::kill(static_cast<pid_t>(pid_), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  }
  if (reader_.joinable()) reader_.join();
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  spawn();
  std::lock_guard<std::mutex> lock(mutex_);
  ++generation_;
  ++restarts_;
  cv_.notify_all();
}

int PipeClient::close_and_wait() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);  // EOF = graceful drain request.
      stdin_fd_ = -1;
    }
  }
  if (reader_.joinable()) reader_.join();
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!reaped_) {
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid_), &status, 0);
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    reaped_ = true;
  }
  return exit_code_;
}

void PipeClient::kill_server() {
  if (pid_ > 0) ::kill(static_cast<pid_t>(pid_), SIGKILL);
}

std::uint64_t PipeClient::restarts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return restarts_;
}

bool PipeClient::circuit_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.retry.circuit_threshold > 0 &&
         consecutive_deaths_ >= options_.retry.circuit_threshold &&
         std::chrono::steady_clock::now() < circuit_open_until_;
}

}  // namespace gmd::service
