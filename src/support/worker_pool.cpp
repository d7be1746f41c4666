#include "support/worker_pool.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "support/io.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

#if defined(_WIN32)
#error "support::PoolWorker requires a POSIX platform"
#else
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace dydroid::support {

namespace {

// Parent-side pipe fds of every live PoolWorker. The mutex is held across
// fork(2) so a new child sees a consistent snapshot and can close the fds
// it would otherwise inherit from earlier workers (see the header: a leaked
// write end keeps a sibling's request pipe open and defeats EOF-driven
// shutdown and death detection).
std::mutex g_pool_fd_mutex;
std::vector<int> g_pool_fds;

void register_pool_fd(int fd) { g_pool_fds.push_back(fd); }

void unregister_pool_fd(int fd) {
  std::lock_guard<std::mutex> lock(g_pool_fd_mutex);
  g_pool_fds.erase(std::remove(g_pool_fds.begin(), g_pool_fds.end(), fd),
                   g_pool_fds.end());
}

/// Write the whole buffer with SIGPIPE suppressed for the calling thread:
/// a worker that died between calls turns the write into a plain EPIPE
/// failure instead of killing the supervisor. The blocked-then-drained
/// pending signal never escapes to the process disposition.
bool write_nosigpipe(int fd, const std::uint8_t* data, std::size_t size) {
  sigset_t pipe_set;
  sigset_t old_set;
  sigemptyset(&pipe_set);
  sigaddset(&pipe_set, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &pipe_set, &old_set);
  const bool ok = write_fully(fd, data, size);
  if (!ok) {
    timespec zero{0, 0};
    (void)::sigtimedwait(&pipe_set, nullptr, &zero);
  }
  ::pthread_sigmask(SIG_SETMASK, &old_set, nullptr);
  return ok;
}

[[noreturn]] void oom_exit() { ::_exit(kOomExitCode); }

/// The supervisor forks from worker threads, so a sibling thread can hold
/// the log sink mutex at fork time; the atfork handlers take it across the
/// fork so both sides resume with a consistent, unlocked sink. Registered
/// once, lazily, on the first spawn.
void install_fork_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    ::pthread_atfork(&log_fork_lock, &log_fork_unlock, &log_fork_unlock);
  });
}

/// Child-side setup between fork and the serve loop: reset SIGINT/SIGTERM,
/// zero RLIMIT_CORE, apply the CPU/address-space limits, route allocation
/// failure to _exit(kOomExitCode). Only async-signal-safe calls plus
/// setrlimit/set_new_handler; the child is single-threaded.
void child_setup(const WorkerLimits& limits) {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_DFL);
  rlimit core{0, 0};
  (void)::setrlimit(RLIMIT_CORE, &core);
  if (limits.cpu_time_s > 0) {
    rlimit cpu{limits.cpu_time_s, limits.cpu_time_s};
    (void)::setrlimit(RLIMIT_CPU, &cpu);
  }
  if (limits.max_memory_bytes > 0 && address_space_limit_supported()) {
    rlimit as{static_cast<rlim_t>(limits.max_memory_bytes),
              static_cast<rlim_t>(limits.max_memory_bytes)};
    (void)::setrlimit(RLIMIT_AS, &as);
  }
  std::set_new_handler(&oom_exit);
}

std::uint32_t frame_length(const Bytes& buffer) {
  return static_cast<std::uint32_t>(buffer[8]) |
         (static_cast<std::uint32_t>(buffer[9]) << 8) |
         (static_cast<std::uint32_t>(buffer[10]) << 16) |
         (static_cast<std::uint32_t>(buffer[11]) << 24);
}

}  // namespace

bool address_space_limit_supported() {
  // ASan reserves terabytes of shadow address space and TSan's runtime
  // aborts (instead of returning nullptr) on allocation failure, so under
  // either sanitizer RLIMIT_AS would kill every child at startup or turn
  // clean OOM exits into uncatchable runtime aborts.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

Result<PoolWorker> PoolWorker::spawn(const ServeLoop& serve,
                                     const WorkerLimits& limits) {
  install_fork_handlers();
  std::lock_guard<std::mutex> lock(g_pool_fd_mutex);
  int request[2] = {-1, -1};
  int response[2] = {-1, -1};
  if (::pipe(request) != 0) {
    return Result<PoolWorker>::failure(std::string("pool: pipe failed: ") +
                                       std::strerror(errno));
  }
  if (::pipe(response) != 0) {
    const std::string message =
        std::string("pool: pipe failed: ") + std::strerror(errno);
    ::close(request[0]);
    ::close(request[1]);
    return Result<PoolWorker>::failure(message);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string message =
        std::string("pool: fork failed: ") + std::strerror(errno);
    ::close(request[0]);
    ::close(request[1]);
    ::close(response[0]);
    ::close(response[1]);
    return Result<PoolWorker>::failure(message);
  }
  if (pid == 0) {
    // Child. The registry snapshot is consistent (its mutex is held by the
    // forking thread) and read without locking — the child is
    // single-threaded and never mutates it.
    for (const int fd : g_pool_fds) ::close(fd);
    ::close(request[1]);
    ::close(response[0]);
    child_setup(limits);
    int code = kChildExceptionExitCode;
    try {
      code = serve(request[0], response[1]);
    } catch (...) {
      code = kChildExceptionExitCode;
    }
    ::_exit(code);
  }
  ::close(request[0]);
  ::close(response[1]);
  register_pool_fd(request[1]);
  register_pool_fd(response[0]);
  return PoolWorker(static_cast<int>(pid), request[1], response[0],
                    limits.wall_deadline_ms);
}

PoolWorker::PoolWorker(PoolWorker&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      request_fd_(std::exchange(other.request_fd_, -1)),
      response_fd_(std::exchange(other.response_fd_, -1)),
      deadline_ms_(other.deadline_ms_),
      served_(other.served_) {}

PoolWorker& PoolWorker::operator=(PoolWorker&& other) noexcept {
  if (this != &other) {
    this->~PoolWorker();
    pid_ = std::exchange(other.pid_, -1);
    request_fd_ = std::exchange(other.request_fd_, -1);
    response_fd_ = std::exchange(other.response_fd_, -1);
    deadline_ms_ = other.deadline_ms_;
    served_ = other.served_;
  }
  return *this;
}

PoolWorker::~PoolWorker() { kill(); }

void PoolWorker::close_pipes() {
  if (request_fd_ >= 0) {
    unregister_pool_fd(request_fd_);
    ::close(request_fd_);
    request_fd_ = -1;
  }
  if (response_fd_ >= 0) {
    unregister_pool_fd(response_fd_);
    ::close(response_fd_);
    response_fd_ = -1;
  }
}

void PoolWorker::reap(PoolRpcResult* result) {
  if (pid_ <= 0) return;
  int status = 0;
  const ssize_t reaped = retry_eintr(
      [&] { return static_cast<ssize_t>(::waitpid(pid_, &status, 0)); });
  pid_ = -1;
  if (result == nullptr || reaped < 0) return;
  if (WIFEXITED(status)) {
    result->exited = true;
    result->exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result->term_signal = WTERMSIG(status);
  }
}

void PoolWorker::kill() {
  close_pipes();
  if (pid_ > 0) {
    (void)::kill(pid_, SIGKILL);
    reap(nullptr);
  }
}

void PoolWorker::shutdown() {
  if (pid_ <= 0) {
    close_pipes();
    return;
  }
  // Closing the request pipe is the shutdown signal: the serve loop reads
  // EOF and _exits(0). The child holds the only write end of the response
  // pipe, so EOF there is the exit notification. Stray bytes are drained
  // and dropped so a chatty child can never block on a full pipe; a child
  // that outlives the grace is killed.
  if (request_fd_ >= 0) {
    unregister_pool_fd(request_fd_);
    ::close(request_fd_);
    request_fd_ = -1;
  }
  bool eof = false;
  const Stopwatch clock;
  while (!eof && response_fd_ >= 0) {
    const double remaining = kPoolShutdownGraceMs - clock.elapsed_ms();
    if (remaining <= 0.0) break;
    pollfd pfd{response_fd_, POLLIN, 0};
    const int ready = static_cast<int>(retry_eintr([&] {
      return static_cast<ssize_t>(
          ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining))));
    }));
    if (ready < 0) break;
    if (ready == 0) continue;  // timeout: the loop re-checks the grace
    std::uint8_t chunk[4096];
    const ssize_t n =
        retry_eintr([&] { return ::read(response_fd_, chunk, sizeof chunk); });
    if (n < 0) break;
    eof = n == 0;
  }
  if (!eof) (void)::kill(pid_, SIGKILL);
  reap(nullptr);
  close_pipes();
}

std::uint64_t PoolWorker::rss_bytes() const {
  if (pid_ <= 0) return 0;
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/statm", pid_);
  std::FILE* file = std::fopen(path, "r");
  if (file == nullptr) return 0;
  unsigned long vm_pages = 0;   // NOLINT(google-runtime-int) statm format
  unsigned long rss_pages = 0;  // NOLINT(google-runtime-int)
  const int parsed = std::fscanf(file, "%lu %lu", &vm_pages, &rss_pages);
  std::fclose(file);
  if (parsed != 2) return 0;
  return static_cast<std::uint64_t>(rss_pages) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

PoolRpcResult PoolWorker::call(const Bytes& request,
                               const std::array<std::uint8_t, 8>& magic,
                               double deadline_ms) {
  PoolRpcResult result;
  if (pid_ <= 0 || request_fd_ < 0 || response_fd_ < 0) {
    result.error = "pool: worker is not running";
    return result;
  }
  Stopwatch clock;
  if (deadline_ms <= 0.0) deadline_ms = deadline_ms_;

  if (!write_nosigpipe(request_fd_, request.data(), request.size())) {
    // The worker died between calls (EPIPE) or the pipe broke: surface the
    // exit facts so the caller classifies it like any other worker death.
    const std::string io_error =
        std::string("pool: request write failed: ") + std::strerror(errno);
    close_pipes();
    reap(&result);
    result.status = PoolRpcResult::Status::kWorkerExit;
    result.error = io_error;
    return result;
  }

  // Read exactly one framed message: header first (magic + len + crc), then
  // `len` payload bytes, killing the worker the moment the deadline passes.
  // Poll timeouts bound how late a deadline kill can land (never more than
  // one poll quantum).
  Bytes buffer;
  std::size_t expected = kPoolMessageHeader;
  bool sized = false;
  for (;;) {
    if (deadline_ms > 0.0 && clock.elapsed_ms() >= deadline_ms) {
      close_pipes();
      (void)::kill(pid_, SIGKILL);
      reap(&result);
      result.status = PoolRpcResult::Status::kTimeout;
      return result;
    }
    int timeout_ms = 100;
    if (deadline_ms > 0.0) {
      const double remaining = deadline_ms - clock.elapsed_ms();
      timeout_ms = static_cast<int>(
          std::min(100.0, std::max(1.0, std::ceil(remaining))));
    }
    pollfd pfd{response_fd_, POLLIN, 0};
    const int ready = static_cast<int>(retry_eintr(
        [&] { return static_cast<ssize_t>(::poll(&pfd, 1, timeout_ms)); }));
    if (ready < 0) {
      const std::string io_error =
          std::string("pool: poll failed: ") + std::strerror(errno);
      close_pipes();
      (void)::kill(pid_, SIGKILL);
      reap(&result);
      result.error = io_error;
      return result;
    }
    if (ready == 0) continue;  // timeout: re-check the deadline
    std::uint8_t chunk[4096];
    const std::size_t want = std::min(sizeof chunk, expected - buffer.size());
    const ssize_t n =
        retry_eintr([&] { return ::read(response_fd_, chunk, want); });
    if (n < 0) {
      const std::string io_error =
          std::string("pool: response read failed: ") + std::strerror(errno);
      close_pipes();
      (void)::kill(pid_, SIGKILL);
      reap(&result);
      result.error = io_error;
      return result;
    }
    if (n == 0) {
      // EOF before a complete message: the worker died mid-app. Reap and
      // hand the raw facts to the caller for crash/OOM classification.
      close_pipes();
      reap(&result);
      result.status = PoolRpcResult::Status::kWorkerExit;
      result.error = "pool: worker exited before shipping a response";
      return result;
    }
    buffer.insert(buffer.end(), chunk, chunk + n);
    if (!sized && buffer.size() >= kPoolMessageHeader) {
      if (!std::equal(magic.begin(), magic.end(), buffer.begin())) {
        close_pipes();
        (void)::kill(pid_, SIGKILL);
        reap(&result);
        result.error = "pool: response stream desynchronized (bad magic)";
        return result;
      }
      const std::uint32_t payload = frame_length(buffer);
      if (payload > kPoolMaxMessageBytes) {
        close_pipes();
        (void)::kill(pid_, SIGKILL);
        reap(&result);
        result.error = "pool: response length header is implausible";
        return result;
      }
      expected = kPoolMessageHeader + payload;
      sized = true;
    }
    if (sized && buffer.size() == expected) {
      result.status = PoolRpcResult::Status::kOk;
      result.message = std::move(buffer);
      ++served_;
      return result;
    }
  }
}

}  // namespace dydroid::support
