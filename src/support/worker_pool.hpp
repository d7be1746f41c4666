// Pre-forked sandbox workers (docs/ISOLATION.md).
//
// DyDroid survived its 58,739-app crawl because every sample ran in a
// disposable environment: an app that crashes, hangs or exhausts memory
// must never take the measurement infrastructure down with it. A
// PoolWorker is that boundary for the corpus driver. The child is forked
// once, applies hard resource limits, then loops over a CRC-framed
// request/response pipe protocol: the parent ships one framed request per
// app attempt and blocks (deadline-bounded) for one framed response. A
// worker may serve thousands of apps, or be recycled after every app
// (fork-per-app containment is exactly that recycle policy). Every per-app
// failure mode is preserved:
//
//   * deadline overrun  → SIGKILL + reap, status kTimeout
//   * child signal/exit → EOF mid-message + reap, status kWorkerExit with
//                         the raw exit facts (the driver classifies
//                         crash/OOM from them)
//   * clean response    → status kOk with the complete framed message
//
// After kTimeout or kWorkerExit the worker is dead and reaped; the caller
// respawns a fresh one (the driver re-dispatches the in-flight app).
//
// Child-side contract (applied before the serve loop runs):
//   * RLIMIT_CORE = 0 — a crashing child never litters core dumps.
//   * RLIMIT_AS (when max_memory_bytes > 0 and the build supports it; see
//     address_space_limit_supported).
//   * std::set_new_handler(_exit(kOomExitCode)) — an allocation failure
//     exits with a reserved code instead of unwinding, so the supervisor
//     can classify out-of-memory deaths distinctly from crashes.
//   * SIGINT/SIGTERM reset to SIG_DFL — the parent's graceful-shutdown
//     handlers must not leak into children.
//   * The loop's return value becomes the exit code; an exception escaping
//     it exits with kChildExceptionExitCode. The child always leaves via
//     _exit(2): no destructors, no atexit handlers, no double-flushed
//     stdio buffers inherited from the parent.
//
// Framing: every message is `magic[8] | len:u32 | crc:u32 | payload[len]`
// — the journal frame layer (support/journal.hpp) under a caller-chosen
// magic. The parent locates message boundaries from the length header;
// CRC validation happens in the caller's decoder.
//
// fork() in a multithreaded parent: the corpus driver forks from worker
// threads. glibc's malloc is made fork-safe by its own atfork handlers;
// the support logger's sink mutex is guarded by handlers registered on the
// first spawn (log_fork_lock/unlock), and children never touch the
// journal, cache or trace registries (parent-side state).
//
// fd hygiene across forks: a pool runs one worker per driver thread, and a
// child forked later would inherit the parent-side pipe ends of every
// earlier worker — keeping a request pipe writable after the parent closes
// it, so EOF-based death detection and graceful shutdown would hang. Every
// parent-side fd is tracked in a process-wide registry (its mutex is held
// across fork) and the child closes all of them before entering the loop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dydroid::support {

/// Reserved child exit codes (chosen high to stay clear of app-meaningful
/// small codes; a serve loop returning them would be misclassified, so
/// don't).
inline constexpr int kOomExitCode = 97;             // new_handler fired
inline constexpr int kChildExceptionExitCode = 96;  // exception escaped loop

/// Hard resource limits applied to the child before the serve loop runs.
struct WorkerLimits {
  /// RLIMIT_AS in bytes; 0 inherits the parent's limit. The limit covers
  /// the whole address space (the forked image included), so it must
  /// comfortably exceed the parent's footprint. Ignored under ASan/TSan,
  /// whose shadow mappings are incompatible with RLIMIT_AS.
  std::uint64_t max_memory_bytes = 0;
  /// Default per-call wall deadline in ms; past it the child is SIGKILLed
  /// and the call reports kTimeout. 0 = wait forever.
  double wall_deadline_ms = 0.0;
};

/// True when this build can enforce RLIMIT_AS (false under ASan/TSan).
[[nodiscard]] bool address_space_limit_supported();

/// How long shutdown() waits for the child to exit after closing its
/// request pipe before it SIGKILLs it.
inline constexpr int kPoolShutdownGraceMs = 500;

/// Bytes preceding the payload of a framed pool message: the 8-byte magic
/// plus the journal frame header (len + crc).
inline constexpr std::size_t kPoolMessageHeader = 16;

/// Upper bound on a single framed message's payload; a length header past
/// it is treated as stream desync, not an allocation request.
inline constexpr std::uint32_t kPoolMaxMessageBytes = 256u * 1024u * 1024u;

/// Outcome of one PoolWorker::call round trip.
struct PoolRpcResult {
  enum class Status : std::uint8_t {
    kOk,          // message holds one complete framed response
    kTimeout,     // deadline fired; worker SIGKILLed and reaped
    kWorkerExit,  // worker died before a complete response; exit facts set
    kError,       // protocol desync or local I/O error; worker killed
  };
  Status status = Status::kError;
  /// The complete message (magic + frame) on kOk.
  Bytes message;
  /// Reap facts, valid for kTimeout/kWorkerExit/kError: WIFEXITED →
  /// exited/exit_code, else term_signal.
  bool exited = false;
  int exit_code = 0;
  int term_signal = 0;
  std::string error;
};

/// One persistent sandboxed child. Confine to a single driver thread.
class PoolWorker {
 public:
  /// Child-side loop: read framed requests from request_fd, write framed
  /// responses to response_fd, return the exit code (EOF on request_fd is
  /// the graceful-shutdown signal — return 0).
  using ServeLoop = std::function<int(int request_fd, int response_fd)>;

  /// Fork a persistent child running `serve` under `limits`. The rlimits
  /// apply to the worker's whole lifetime. The wall_deadline_ms in `limits`
  /// is the default per-call deadline.
  static Result<PoolWorker> spawn(const ServeLoop& serve,
                                  const WorkerLimits& limits);

  PoolWorker(PoolWorker&& other) noexcept;
  PoolWorker& operator=(PoolWorker&& other) noexcept;
  PoolWorker(const PoolWorker&) = delete;
  PoolWorker& operator=(const PoolWorker&) = delete;
  /// A live worker is SIGKILLed and reaped — destruction never leaks
  /// zombies. Prefer shutdown() for a graceful EOF-driven exit.
  ~PoolWorker();

  /// One framed round trip: ship `request` (a complete magic+frame
  /// message), then read exactly one framed response whose magic must be
  /// `magic`, killing the worker past `deadline_ms` (0 = the spawn
  /// default; both 0 = wait forever). On anything but kOk the worker is
  /// dead and reaped — alive() turns false and the caller respawns.
  [[nodiscard]] PoolRpcResult call(const Bytes& request,
                                   const std::array<std::uint8_t, 8>& magic,
                                   double deadline_ms = 0.0);

  /// Graceful shutdown: close the request pipe (the loop sees EOF and
  /// exits), then wait up to kPoolShutdownGraceMs for EOF on the response
  /// pipe — it arrives the moment the child exits — draining and dropping
  /// any stray bytes the child still writes. SIGKILL only if EOF never
  /// arrives; either way the child is reaped before this returns.
  void shutdown();

  /// SIGKILL + reap immediately (recycling a wedged or bloated worker).
  void kill();

  [[nodiscard]] bool alive() const { return pid_ > 0; }
  [[nodiscard]] int pid() const { return pid_; }
  /// Completed (kOk) calls served by this worker.
  [[nodiscard]] std::uint64_t served() const { return served_; }

 private:
  PoolWorker(int pid, int request_fd, int response_fd, double deadline_ms)
      : pid_(pid),
        request_fd_(request_fd),
        response_fd_(response_fd),
        deadline_ms_(deadline_ms) {}

  void close_pipes();
  void reap(PoolRpcResult* result);

  int pid_ = -1;
  int request_fd_ = -1;
  int response_fd_ = -1;
  double deadline_ms_ = 0.0;
  std::uint64_t served_ = 0;
};

}  // namespace dydroid::support
