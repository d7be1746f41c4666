// Process-isolation sandbox suite (docs/ISOLATION.md): support::PoolWorker
// supervision facts (framed round trips, reserved exit codes, graceful EOF
// shutdown, deadline kills, death detection), the sandbox RPC codec, and
// the CorpusRunner integration. Sandboxed runs must reproduce thread-mode
// reports byte-for-byte at any worker count (faults on and off), classify
// signal/OOM/deadline deaths into quarantined crash outcomes, re-dispatch
// the in-flight app of an externally killed worker, and interoperate with
// the journal, the result cache and sharding.
//
// Every runner behaviour is checked under both recycle policies: workers
// that persist across apps (pool_recycle_apps = 0) and a fresh child per
// app (pool_recycle_apps = 1, the fork-per-app containment `--isolate`
// selects). Where a behaviour has a WorkerPool.* test and an Isolation.*
// test, the two share one check — WorkerPool.* runs it with persistent
// workers, Isolation.* with a fresh child per app; the remaining runner
// tests loop over both policies.
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/sandbox.hpp"
#include "support/fault.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/trace.hpp"
#include "support/worker_pool.hpp"

namespace dydroid::driver {
namespace {

appgen::Corpus small_corpus(double scale = 0.002) {
  appgen::CorpusConfig config;
  config.scale = scale;
  return appgen::generate_corpus(config);
}

std::vector<std::string> report_jsons(const CorpusResult& result) {
  std::vector<std::string> out;
  out.reserve(result.outcomes.size());
  for (const auto& outcome : result.outcomes) {
    out.push_back(core::report_to_json(outcome.report));
  }
  return out;
}

void expect_same_counts(const AggregateStats& got, const AggregateStats& want) {
  EXPECT_EQ(got.apps, want.apps);
  EXPECT_EQ(got.not_run, want.not_run);
  EXPECT_EQ(got.rewriting_failure, want.rewriting_failure);
  EXPECT_EQ(got.no_activity, want.no_activity);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.exercised, want.exercised);
  EXPECT_EQ(got.decompile_failed, want.decompile_failed);
  EXPECT_EQ(got.static_dcl, want.static_dcl);
  EXPECT_EQ(got.intercepted, want.intercepted);
  EXPECT_EQ(got.remote_loaders, want.remote_loaders);
  EXPECT_EQ(got.malware_carriers, want.malware_carriers);
  EXPECT_EQ(got.vulnerable, want.vulnerable);
  EXPECT_EQ(got.privacy_leaking, want.privacy_leaking);
  EXPECT_EQ(got.binaries, want.binaries);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.retried, want.retried);
  EXPECT_EQ(got.quarantined, want.quarantined);
  EXPECT_EQ(got.sandbox_crashed, want.sandbox_crashed);
  EXPECT_EQ(got.killed_oom, want.killed_oom);
  EXPECT_EQ(got.killed_timeout, want.killed_timeout);
}

/// The two recycle policies every runner behaviour is checked under:
/// persistent workers and a fresh child per app (fork-per-app).
constexpr std::uint32_t kRecyclePolicies[] = {0, 1};

/// A sandboxed runner configuration under one recycle policy.
RunnerConfig sandboxed(std::size_t jobs, std::uint32_t recycle_apps) {
  RunnerConfig config;
  config.jobs = jobs;
  config.isolation_mode = IsolationMode::kPool;
  config.pool_recycle_apps = recycle_apps;
  return config;
}

/// Jobs replicating one generated app N times; scenarios may be overridden
/// to misbehave (hang, kill themselves) inside the pooled worker.
struct OneAppJobs {
  appgen::GeneratedApp app;
  std::vector<AppJob> jobs;
};

OneAppJobs replicated_jobs(std::size_t count, std::uint64_t rng_seed = 23) {
  OneAppJobs out;
  appgen::AppSpec spec;
  spec.package = "com.pool.app";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(rng_seed);
  out.app = appgen::build_app(spec, rng);
  out.jobs.resize(count);
  for (auto& job : out.jobs) {
    job.apk = out.app.apk;
    job.scenario = [&app = out.app](os::Device& device) {
      appgen::apply_scenario(app.scenario, device);
    };
  }
  return out;
}

class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_pool_" + tag + "_" +
            std::to_string(::getpid());
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr std::array<std::uint8_t, 8> kEchoMagic = {'D', 'Y', 'T', 'E',
                                                    'S', 'T', 'R', '1'};

/// A serve loop that echoes every framed message back verbatim.
int echo_serve(int request_fd, int response_fd) {
  for (;;) {
    std::uint8_t header[support::kPoolMessageHeader];
    const ssize_t got = support::read_exact(request_fd, header, sizeof header);
    if (got == 0) return 0;
    if (got != static_cast<ssize_t>(sizeof header)) return 3;
    const std::uint32_t len = static_cast<std::uint32_t>(header[8]) |
                              (static_cast<std::uint32_t>(header[9]) << 8) |
                              (static_cast<std::uint32_t>(header[10]) << 16) |
                              (static_cast<std::uint32_t>(header[11]) << 24);
    std::vector<std::uint8_t> message(header, header + sizeof header);
    message.resize(sizeof header + len);
    if (len > 0 && support::read_exact(request_fd, message.data() + sizeof header,
                                       len) != static_cast<ssize_t>(len)) {
      return 3;
    }
    if (!support::write_fully(response_fd, message.data(), message.size())) {
      return 3;
    }
  }
}

support::Bytes framed_echo_message(std::string_view text) {
  support::ByteWriter payload;
  for (const char c : text) payload.u8(static_cast<std::uint8_t>(c));
  support::ByteWriter stream;
  stream.raw(kEchoMagic);
  support::encode_frame(stream, payload.data());
  return stream.take();
}


/// A serve loop that reads one request header, then runs `after`.
template <typename F>
support::PoolWorker::ServeLoop after_first_request(F after) {
  return [after](int request_fd, int response_fd) -> int {
    std::uint8_t header[support::kPoolMessageHeader];
    (void)support::read_exact(request_fd, header, sizeof header);
    return after(response_fd);
  };
}

/// True once `pid` is fully reaped (no process, not even a zombie).
bool reaped(int pid) { return ::kill(pid, 0) == -1 && errno == ESRCH; }

// ---------------------------------------------------------------------------
// support::PoolWorker: raw RPC supervision facts.
// ---------------------------------------------------------------------------

TEST(PoolWorker, FramedRequestsRoundTripAndCountServedApps) {
  auto spawned = support::PoolWorker::spawn(echo_serve, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  EXPECT_GT(worker.pid(), 0);
  EXPECT_TRUE(worker.alive());

  for (int i = 0; i < 5; ++i) {
    const auto request = framed_echo_message("ping-" + std::to_string(i));
    const auto result = worker.call(request, kEchoMagic);
    ASSERT_EQ(result.status, support::PoolRpcResult::Status::kOk)
        << result.error;
    EXPECT_EQ(result.message, request);  // one long-lived child served all 5
  }
  EXPECT_EQ(worker.served(), 5u);
  worker.shutdown();
  EXPECT_FALSE(worker.alive());
}

TEST(PoolWorker, LargeResponseDrainsWithoutDeadlock) {
  // More than any pipe buffer (64 KiB default): the deadline-bounded read
  // must keep draining while the child is still writing.
  constexpr std::size_t kSize = 1 << 20;
  auto spawned = support::PoolWorker::spawn(
      after_first_request([](int response_fd) {
        std::string text(kSize, '\0');
        for (std::size_t i = 0; i < text.size(); ++i) {
          text[i] = static_cast<char>(i * 31u);
        }
        const auto message = framed_echo_message(text);
        return support::write_fully(response_fd, message.data(),
                                    message.size())
                   ? 0
                   : 3;
      }),
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("big"), kEchoMagic);
  ASSERT_EQ(result.status, support::PoolRpcResult::Status::kOk) << result.error;
  ASSERT_EQ(result.message.size(), support::kPoolMessageHeader + kSize);
  for (std::size_t i = 0; i < kSize; i += 4099) {
    ASSERT_EQ(result.message[support::kPoolMessageHeader + i],
              static_cast<std::uint8_t>(i * 31u));
  }
}

TEST(PoolWorker, ServeLoopReturnValueBecomesExitCode) {
  auto spawned = support::PoolWorker::spawn(
      after_first_request([](int) { return 7; }), {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("exit"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 7);
}

TEST(PoolWorker, EscapedExceptionExitsWithReservedCode) {
  auto spawned = support::PoolWorker::spawn(
      after_first_request(
          [](int) -> int { throw std::runtime_error("child boom"); }),
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("boom"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, support::kChildExceptionExitCode);
}

TEST(PoolWorker, MemoryHogExitsWithReservedOomCode) {
  if (!support::address_space_limit_supported()) {
    GTEST_SKIP() << "RLIMIT_AS unsupported under this sanitizer";
  }
  support::WorkerLimits limits;
  limits.max_memory_bytes = 3ull << 30;  // generous vs. the parent image
  auto spawned = support::PoolWorker::spawn(
      after_first_request([](int) -> int {
        std::vector<std::byte*> hog;
        for (;;) hog.push_back(new std::byte[64 << 20]);  // until new fails
      }),
      limits);
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("hog"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, support::kOomExitCode);
}

TEST(PoolWorker, DestructorKillsAndReapsLiveWorker) {
  int pid = -1;
  {
    auto spawned = support::PoolWorker::spawn(
        [](int, int) -> int {
          for (;;) ::usleep(10000);  // ignores its pipes entirely
        },
        {});
    ASSERT_TRUE(spawned.ok()) << spawned.error();
    pid = std::move(spawned).take().pid();
  }  // destructor: SIGKILL + reap
  EXPECT_TRUE(reaped(pid));
}

TEST(PoolWorker, ShutdownIsGracefulEofNotAKill) {
  auto spawned = support::PoolWorker::spawn(echo_serve, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const pid_t pid = worker.pid();
  worker.shutdown();  // closes the request pipe; the loop sees EOF, exits 0
  EXPECT_FALSE(worker.alive());
  // The pid is fully reaped — no zombie left behind.
  EXPECT_EQ(::kill(pid, 0), -1);
}

TEST(PoolWorker, ShutdownKillsAWorkerThatLingersPastEof) {
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int) -> int {
        std::uint8_t byte = 0;
        while (support::read_exact(request_fd, &byte, 1) == 1) {
        }
        for (;;) ::usleep(10000);  // saw EOF, refuses to exit
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const int pid = worker.pid();
  const auto start = std::chrono::steady_clock::now();
  worker.shutdown();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_FALSE(worker.alive());
  EXPECT_TRUE(reaped(pid));
  // The grace was honoured before the SIGKILL, and bounded the wait.
  EXPECT_GE(elapsed_ms, support::kPoolShutdownGraceMs - 1);
  EXPECT_LT(elapsed_ms, 15000);
}

TEST(PoolWorker, ShutdownDrainsStrayBytesWrittenAfterEof) {
  // On EOF the child writes far more than a pipe buffer holds, then leaves
  // a marker and exits. Shutdown must drain and drop the bytes: otherwise
  // the child blocks on the full pipe and dies to the grace SIGKILL before
  // it can write the marker.
  TempPath marker("stray");
  auto spawned = support::PoolWorker::spawn(
      [path = marker.path()](int request_fd, int response_fd) -> int {
        std::uint8_t byte = 0;
        while (support::read_exact(request_fd, &byte, 1) == 1) {
        }
        const support::Bytes stray(1 << 20, 0xAB);
        if (!support::write_fully(response_fd, stray.data(), stray.size())) {
          return 3;
        }
        std::ofstream(path) << "drained";
        return 0;
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const int pid = worker.pid();
  worker.shutdown();
  EXPECT_FALSE(worker.alive());
  EXPECT_TRUE(reaped(pid));
  EXPECT_TRUE(std::filesystem::exists(marker.path()));
}

TEST(PoolWorker, DyingWorkerIsDetectedAndClassifiedBySignal) {
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int) {
        std::uint8_t header[support::kPoolMessageHeader];
        (void)support::read_exact(request_fd, header, sizeof header);
        ::raise(SIGABRT);  // die mid-request, before any response bytes
        return 0;
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("doomed"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGABRT);
  EXPECT_FALSE(worker.alive());
}

TEST(PoolWorker, HangingWorkerIsDeadlineKilled) {
  auto spawned = support::PoolWorker::spawn(
      [](int, int) {
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return 0;  // unreachable
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      worker.call(framed_echo_message("stuck"), kEchoMagic, 300.0);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kTimeout);
  EXPECT_FALSE(worker.alive());  // SIGKILLed and reaped by the deadline path
  EXPECT_LT(elapsed_ms, 15000);
}

TEST(PoolWorker, GarbageResponseKillsTheWorker) {
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int response_fd) {
        std::uint8_t header[support::kPoolMessageHeader];
        (void)support::read_exact(request_fd, header, sizeof header);
        const char junk[] = "not a framed message at all............";
        (void)support::write_fully(
            response_fd, reinterpret_cast<const std::uint8_t*>(junk),
            sizeof junk);
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return 0;  // unreachable
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kError);
  EXPECT_FALSE(worker.alive());  // a desynchronized stream retires the worker
}

// ---------------------------------------------------------------------------
// Sandbox RPC codec (driver/sandbox.hpp) and the outcome fields it ships.
// ---------------------------------------------------------------------------

TEST(PoolCodec, RequestRoundTripsAllFields) {
  PoolRequest request;
  request.app_index = 0x1122334455ull;
  request.attempt = 3;
  request.seed = 0xDEADBEEFCAFEull;
  request.worker = 7;
  request.crash_child = true;
  const auto encoded = encode_pool_request(request);
  const auto decoded = decode_pool_request(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().app_index, request.app_index);
  EXPECT_EQ(decoded.value().attempt, request.attempt);
  EXPECT_EQ(decoded.value().seed, request.seed);
  EXPECT_EQ(decoded.value().worker, request.worker);
  EXPECT_TRUE(decoded.value().crash_child);
}

TEST(PoolCodec, DamagedRequestsFailCleanly) {
  PoolRequest request;
  request.app_index = 12;
  request.seed = 34;
  auto encoded = encode_pool_request(request);
  // Truncations at every boundary: never throw, never misdecode.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const auto truncated =
        support::Bytes(encoded.begin(), encoded.begin() + cut);
    EXPECT_FALSE(decode_pool_request(truncated).ok()) << "cut=" << cut;
  }
  // A flipped payload byte must fail the CRC.
  encoded[encoded.size() - 1] ^= 0x40;
  EXPECT_FALSE(decode_pool_request(encoded).ok());
}

TEST(PoolCodec, ResponseRoundTripsAnOutcome) {
  AppOutcome outcome;
  outcome.report.package = "com.pool.codec";
  outcome.report.status = core::DynamicStatus::kExercised;
  outcome.seed = 0xFEED5EED;
  outcome.attempts = 2;
  const auto encoded = encode_pool_response(41, outcome);
  const auto decoded = decode_pool_response(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().index, 41u);
  EXPECT_EQ(decoded.value().outcome.seed, outcome.seed);
  EXPECT_EQ(core::report_to_json(decoded.value().outcome.report),
            core::report_to_json(outcome.report));
  // The same frame under a different magic is not a pool response.
  support::Bytes wrong_magic = encoded;
  wrong_magic[7] = '0';
  EXPECT_FALSE(decode_pool_response(wrong_magic).ok());
}

AppOutcome fated_outcome() {
  AppOutcome outcome;
  outcome.report.package = "com.isolation.codec";
  outcome.report.status = core::DynamicStatus::kCrash;
  outcome.report.crash_message = "sandbox: child died on signal 11";
  outcome.seed = 0xBE9C0007ull;
  outcome.wall_ms = 12.5;
  outcome.attempts = 2;
  outcome.timed_out = true;
  outcome.quarantined = true;
  outcome.sandbox_fate = SandboxFate::kOomKilled;
  outcome.fatal_signal = SIGKILL;
  return outcome;
}

TEST(SandboxCodec, ResultStreamRoundTrips) {
  // Every driver field the supervisor may need survives the response.
  const AppOutcome outcome = fated_outcome();
  const support::Bytes stream = encode_pool_response(42, outcome);
  auto decoded = decode_pool_response(stream);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().index, 42u);
  const auto& shipped = decoded.value().outcome;
  EXPECT_EQ(shipped.seed, outcome.seed);
  EXPECT_EQ(shipped.attempts, outcome.attempts);
  EXPECT_TRUE(shipped.timed_out);
  EXPECT_TRUE(shipped.quarantined);
  EXPECT_EQ(shipped.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_EQ(shipped.fatal_signal, SIGKILL);
  EXPECT_EQ(core::report_to_json(shipped.report),
            core::report_to_json(outcome.report));
}

TEST(SandboxCodec, TornAndEmptyStreamsFailWithoutThrowing) {
  const support::Bytes stream = encode_pool_response(1, fated_outcome());
  EXPECT_FALSE(decode_pool_response({}).ok());  // child died pre-write
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{12},
        stream.size() - 1}) {
    const auto torn = decode_pool_response(
        std::span<const std::uint8_t>(stream.data(), keep));
    EXPECT_FALSE(torn.ok()) << "prefix of " << keep << " bytes decoded";
  }
  support::Bytes flipped = stream;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(decode_pool_response(flipped).ok());
}

TEST(OutcomeCodec, FateAndSignalRoundTripAndBadFateIsRejected) {
  const AppOutcome outcome = fated_outcome();
  const support::Bytes payload = encode_outcome(3, outcome);
  const auto decoded = decode_outcome(payload);
  EXPECT_EQ(decoded.outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_EQ(decoded.outcome.fatal_signal, SIGKILL);
  // The fate byte sits after version(1) + index(8) + seed(8) + wall(8) +
  // attempts(4) + flags(1); values past kTimedOut are invalid.
  support::Bytes bad = payload;
  bad[1 + 8 + 8 + 8 + 4 + 1] = 0x07;
  EXPECT_THROW((void)decode_outcome(bad), support::ParseError);
}

// ---------------------------------------------------------------------------
// Golden equivalence: sandboxed runs reproduce thread mode byte-for-byte.
// ---------------------------------------------------------------------------

void check_matches_thread_mode_at_any_worker_count(std::uint32_t recycle) {
  const auto corpus = small_corpus();
  ASSERT_GT(corpus.apps.size(), 10u);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const auto pooled =
        CorpusRunner(pipeline, sandboxed(jobs, recycle)).run(corpus);
    ASSERT_EQ(pooled.outcomes.size(), corpus.apps.size());
    const auto pooled_json = report_jsons(pooled);
    for (std::size_t i = 0; i < golden_json.size(); ++i) {
      EXPECT_EQ(pooled_json[i], golden_json[i])
          << "app " << i << " at jobs=" << jobs;
      EXPECT_EQ(pooled.outcomes[i].sandbox_fate, SandboxFate::kNone);
      EXPECT_EQ(pooled.outcomes[i].seed, golden.outcomes[i].seed);
      EXPECT_EQ(pooled.outcomes[i].attempts, golden.outcomes[i].attempts);
    }
    expect_same_counts(pooled.stats, golden.stats);
  }
}

TEST(WorkerPool, PoolModeMatchesThreadModeAtAnyWorkerCount) {
  check_matches_thread_mode_at_any_worker_count(0);
}

TEST(Isolation, IsolateModeMatchesThreadModeAtAnyWorkerCount) {
  check_matches_thread_mode_at_any_worker_count(1);
}

void check_matches_thread_mode_under_fault_injection(std::uint32_t recycle) {
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("device.install=p:0.3");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig thread_config;
  thread_config.jobs = 2;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto pooled = CorpusRunner(pipeline, sandboxed(2, recycle)).run(corpus);

  // The worker runs the identical per-app fault session, so injected
  // pipeline crashes, retries and quarantines reproduce exactly.
  const auto golden_json = report_jsons(golden);
  const auto pooled_json = report_jsons(pooled);
  ASSERT_EQ(pooled_json.size(), golden_json.size());
  for (std::size_t i = 0; i < golden_json.size(); ++i) {
    EXPECT_EQ(pooled_json[i], golden_json[i]) << "app " << i;
    EXPECT_EQ(pooled.outcomes[i].attempts, golden.outcomes[i].attempts);
    EXPECT_EQ(pooled.outcomes[i].quarantined, golden.outcomes[i].quarantined);
    EXPECT_EQ(pooled.outcomes[i].timed_out, golden.outcomes[i].timed_out);
  }
  expect_same_counts(pooled.stats, golden.stats);
}

TEST(WorkerPool, PoolModeMatchesThreadModeUnderFaultInjection) {
  check_matches_thread_mode_under_fault_injection(0);
}

TEST(Isolation, IsolateModeMatchesThreadModeUnderFaultInjection) {
  check_matches_thread_mode_under_fault_injection(1);
}

TEST(WorkerPool, PoolModeMatchesForkModeUnderSandboxCrashInjection) {
  // The recycle policy must not matter app-by-app even when the sandbox
  // *itself* is under attack: the injected kill decision is drawn in the
  // supervisor from the same per-app session under both policies, and the
  // synthesized crash_message strings are identical — which is what keeps
  // journals from persistent-worker and fork-per-app runs mutually
  // replayable.
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.4");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  const auto forked = CorpusRunner(pipeline, sandboxed(2, 1)).run(corpus);
  ASSERT_GT(forked.stats.sandbox_crashed, 0u);
  ASSERT_LT(forked.stats.sandbox_crashed, corpus.apps.size());
  const auto pooled = CorpusRunner(pipeline, sandboxed(2, 0)).run(corpus);

  const auto forked_json = report_jsons(forked);
  const auto pooled_json = report_jsons(pooled);
  ASSERT_EQ(pooled_json.size(), forked_json.size());
  for (std::size_t i = 0; i < forked_json.size(); ++i) {
    EXPECT_EQ(pooled_json[i], forked_json[i]) << "app " << i;
    EXPECT_EQ(pooled.outcomes[i].sandbox_fate, forked.outcomes[i].sandbox_fate);
    EXPECT_EQ(pooled.outcomes[i].fatal_signal, forked.outcomes[i].fatal_signal);
    EXPECT_EQ(pooled.outcomes[i].quarantined, forked.outcomes[i].quarantined);
  }
  expect_same_counts(pooled.stats, forked.stats);
}

// ---------------------------------------------------------------------------
// Classification: a worker death is an app fate, not a campaign fate.
// ---------------------------------------------------------------------------

void check_injected_crash_classifies(std::uint32_t recycle) {
  // Each app draws the kill decision from its own per-seed fault session,
  // so p:0.5 deterministically fates *some* of the replicas: the fated
  // ones abort their worker (a real SIGABRT, classified and quarantined
  // even with retries off), and a fresh worker serves the spared ones with
  // golden-identical reports — one poisoned app never takes the pool down.
  auto fixture = replicated_jobs(6);
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(clean, thread_config).run(fixture.jobs);

  const auto result =
      CorpusRunner(pipeline, sandboxed(1, recycle)).run(fixture.jobs);

  ASSERT_EQ(result.outcomes.size(), 6u);
  std::size_t fated = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& outcome = result.outcomes[i];
    if (outcome.sandbox_fate == SandboxFate::kCrashed) {
      ++fated;
      EXPECT_EQ(outcome.fatal_signal, SIGABRT);
      EXPECT_TRUE(outcome.quarantined);
      EXPECT_EQ(outcome.attempts, 1u);
      EXPECT_GT(outcome.wall_ms, 0.0);
      EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
      EXPECT_NE(outcome.report.crash_message.find("signal"),
                std::string::npos);
    } else {
      EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kNone);
      EXPECT_EQ(core::report_to_json(outcome.report),
                core::report_to_json(golden.outcomes[i].report))
          << "app " << i;
    }
  }
  ASSERT_GT(fated, 0u);   // the injection actually hit...
  ASSERT_LT(fated, 6u);   // ...and spared apps for the recovery claim
  EXPECT_EQ(result.stats.sandbox_crashed, fated);
  EXPECT_EQ(result.stats.crashed, fated);  // kills land in Table II crashed
  EXPECT_EQ(result.stats.quarantined, fated);
  EXPECT_EQ(result.stats.killed_oom, 0u);
  EXPECT_EQ(result.stats.killed_timeout, 0u);
}

TEST(WorkerPool, InjectedCrashClassifiesAndPoolKeepsServing) {
  check_injected_crash_classifies(0);
}

TEST(Isolation, InjectedChildCrashClassifiesWithFatalSignal) {
  check_injected_crash_classifies(1);
}

void check_hanging_app_is_deadline_killed(std::uint32_t recycle) {
  auto fixture = replicated_jobs(2);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(fixture.jobs);

  fixture.jobs[0].scenario = [](os::Device&) {
    // An app stuck forever: only the supervisor's SIGKILL ends it.
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  RunnerConfig config = sandboxed(1, recycle);
  config.sandbox_deadline_ms = 300.0;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& hung = result.outcomes[0];
  EXPECT_EQ(hung.sandbox_fate, SandboxFate::kTimedOut);
  EXPECT_EQ(hung.fatal_signal, SIGKILL);
  EXPECT_TRUE(hung.timed_out);
  EXPECT_TRUE(hung.quarantined);
  EXPECT_EQ(hung.report.status, core::DynamicStatus::kCrash);
  // The deadline, not the hang, bounds the app's wall time.
  EXPECT_LT(hung.wall_ms, 15000.0);
  // The replacement worker serves the next app cleanly.
  EXPECT_EQ(result.outcomes[1].sandbox_fate, SandboxFate::kNone);
  EXPECT_EQ(core::report_to_json(result.outcomes[1].report),
            core::report_to_json(golden.outcomes[1].report));
  EXPECT_EQ(result.stats.killed_timeout, 1u);
  EXPECT_EQ(result.stats.timed_out, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
}

TEST(WorkerPool, HangingAppIsDeadlineKilledAndPoolRecovers) {
  check_hanging_app_is_deadline_killed(0);
}

TEST(Isolation, HangingAppIsDeadlineKilledWithinBudget) {
  check_hanging_app_is_deadline_killed(1);
}

void check_memory_exploding_app_is_oom_killed(std::uint32_t recycle) {
  if (!support::address_space_limit_supported()) {
    GTEST_SKIP() << "RLIMIT_AS unsupported under this sanitizer";
  }
  auto fixture = replicated_jobs(1);
  fixture.jobs[0].scenario = [](os::Device&) {
    std::vector<std::byte*> hog;
    for (;;) hog.push_back(new std::byte[64 << 20]);  // runs in the worker
  };

  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config = sandboxed(1, recycle);
  config.sandbox_mem_limit_bytes = 3ull << 30;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  EXPECT_EQ(result.stats.killed_oom, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
  EXPECT_EQ(result.stats.sandbox_crashed, 0u);
}

TEST(WorkerPool, MemoryExplodingAppIsKilledOomAndQuarantined) {
  check_memory_exploding_app_is_oom_killed(0);
}

TEST(Isolation, MemoryExplodingAppIsKilledOomAndQuarantined) {
  check_memory_exploding_app_is_oom_killed(1);
}

// ---------------------------------------------------------------------------
// External SIGKILL: the in-flight app re-dispatches to a fresh worker.
// ---------------------------------------------------------------------------

void check_external_kill_redispatches(std::uint32_t recycle) {
  auto fixture = replicated_jobs(1);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(fixture.jobs);

  // First execution SIGKILLs its own worker mid-app (indistinguishable
  // from an external kill); the marker makes the re-dispatched run clean.
  TempPath marker("redispatch");
  fixture.jobs[0].scenario = [&app = fixture.app,
                              path = marker.path()](os::Device& device) {
    if (!std::filesystem::exists(path)) {
      std::ofstream(path) << "killed once";
      ::raise(SIGKILL);
    }
    appgen::apply_scenario(app.scenario, device);
  };

  const auto result =
      CorpusRunner(pipeline, sandboxed(1, recycle)).run(fixture.jobs);

  EXPECT_TRUE(std::filesystem::exists(marker.path()));  // the kill happened
  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kNone);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_EQ(core::report_to_json(outcome.report),
            core::report_to_json(golden.outcomes[0].report));
  EXPECT_EQ(result.stats.killed_oom, 0u);
  EXPECT_EQ(result.stats.sandbox_crashed, 0u);
}

TEST(WorkerPool, ExternallyKilledWorkerRedispatchesInFlightApp) {
  check_external_kill_redispatches(0);
}

TEST(Isolation, ExternallyKilledChildRespawnsTransparently) {
  check_external_kill_redispatches(1);
}

void check_repeated_sigkill_escalates(std::uint32_t recycle) {
  // Every execution dies to SIGKILL: the re-dispatch budget must run out
  // and the app classify as a kernel-style OOM kill, not loop forever.
  auto fixture = replicated_jobs(1);
  fixture.jobs[0].scenario = [](os::Device&) { ::raise(SIGKILL); };

  const core::DyDroid pipeline{core::PipelineOptions{}};
  const auto result =
      CorpusRunner(pipeline, sandboxed(1, recycle)).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_EQ(outcome.fatal_signal, SIGKILL);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  EXPECT_EQ(result.stats.killed_oom, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
}

TEST(WorkerPool, RepeatedExternalSigkillEscalatesToOomClassification) {
  check_repeated_sigkill_escalates(0);
}

TEST(Isolation, RepeatedExternalSigkillEscalatesToOomClassification) {
  check_repeated_sigkill_escalates(1);
}

// ---------------------------------------------------------------------------
// Recycling: between-attempt worker retirement never changes a report.
// ---------------------------------------------------------------------------

TEST(WorkerPool, RecycleAfterKAppsIsInvisibleInReports) {
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  support::set_metrics_enabled(true);
  support::metrics_reset();
  // Retire every worker every 3 apps.
  const auto recycled = CorpusRunner(pipeline, sandboxed(2, 3)).run(corpus);
  support::set_metrics_enabled(false);
  const auto metrics = support::metrics_snapshot();
  support::metrics_reset();

  const auto recycled_json = report_jsons(recycled);
  ASSERT_EQ(recycled_json.size(), golden_json.size());
  for (std::size_t i = 0; i < golden_json.size(); ++i) {
    EXPECT_EQ(recycled_json[i], golden_json[i]) << "app " << i;
  }
  // The knob actually did something: with ~dozens of apps per worker and
  // K=3, many recycles (and therefore many spawns) must have happened.
  const auto* recycles = metrics.counter("sandbox.pool.recycled");
  const auto* spawns = metrics.counter("sandbox.pool.spawned");
  ASSERT_NE(recycles, nullptr);
  ASSERT_NE(spawns, nullptr);
  EXPECT_GE(recycles->value, corpus.apps.size() / 4);
  // Every recycle forces a later spawn, except one that lands exactly on a
  // worker's final app (the thread epilogue then finds an empty slot).
  EXPECT_GE(spawns->value, recycles->value);
}

// ---------------------------------------------------------------------------
// Pool fault sites: supervisor-side plumbing failures quarantine one app.
// ---------------------------------------------------------------------------

TEST(WorkerPool, InjectedSpawnFailureQuarantinesEveryApp) {
  auto fixture = replicated_jobs(2);
  const auto plan_result = support::FaultPlan::parse("sandbox.pool.spawn=always");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  for (const std::uint32_t recycle : kRecyclePolicies) {
    SCOPED_TRACE("recycle " + std::to_string(recycle));
    const auto result =
        CorpusRunner(pipeline, sandboxed(1, recycle)).run(fixture.jobs);
    for (const auto& outcome : result.outcomes) {
      EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kCrashed);
      EXPECT_TRUE(outcome.quarantined);
      EXPECT_NE(outcome.report.crash_message.find("spawn failed"),
                std::string::npos);
    }
    EXPECT_EQ(result.stats.sandbox_crashed, 2u);
  }
}

TEST(WorkerPool, InjectedRpcTearQuarantinesAndRetiresTheWorker) {
  auto fixture = replicated_jobs(6);
  const auto plan_result =
      support::FaultPlan::parse("sandbox.pool.rpc=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(clean, thread_config).run(fixture.jobs);

  for (const std::uint32_t recycle : kRecyclePolicies) {
    SCOPED_TRACE("recycle " + std::to_string(recycle));
    const auto result =
        CorpusRunner(pipeline, sandboxed(1, recycle)).run(fixture.jobs);
    std::size_t torn = 0;
    for (std::size_t i = 0; i < 6; ++i) {
      const auto& outcome = result.outcomes[i];
      if (outcome.sandbox_fate == SandboxFate::kCrashed) {
        ++torn;
        EXPECT_TRUE(outcome.quarantined);
      } else {
        // An app after a torn RPC is served by a fresh worker, cleanly.
        EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kNone);
        EXPECT_EQ(core::report_to_json(outcome.report),
                  core::report_to_json(golden.outcomes[i].report))
            << "app " << i;
      }
    }
    ASSERT_GT(torn, 0u);
    ASSERT_LT(torn, 6u);
  }
}

TEST(WorkerPool, InjectedRecycleIsInvisibleInReports) {
  const auto corpus = small_corpus();
  const auto plan_result =
      support::FaultPlan::parse("sandbox.pool.recycle=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(clean, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));
  for (const std::uint32_t recycle : kRecyclePolicies) {
    SCOPED_TRACE("recycle " + std::to_string(recycle));
    const auto result =
        CorpusRunner(pipeline, sandboxed(2, recycle)).run(corpus);
    // Recycling happens strictly between attempts: even firing on every
    // other app it can never perturb a single report.
    const auto result_json = report_jsons(result);
    ASSERT_EQ(result_json.size(), golden_json.size());
    for (std::size_t i = 0; i < golden_json.size(); ++i) {
      EXPECT_EQ(result_json[i], golden_json[i]) << "app " << i;
    }
    EXPECT_EQ(result.stats.sandbox_crashed, 0u);
    EXPECT_EQ(result.stats.quarantined, 0u);
  }
}

// ---------------------------------------------------------------------------
// Journal, cache and shard interplay.
// ---------------------------------------------------------------------------

void check_fated_outcomes_journal_and_replay(std::uint32_t recycle) {
  TempPath journal("journal");
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.4");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig config = sandboxed(2, recycle);
  config.journal_path = journal.path();
  const auto live = CorpusRunner(pipeline, config).run(corpus);
  // The probabilistic injection must actually have fated some apps — and
  // spared some — or the replay assertion below is vacuous.
  ASSERT_GT(live.stats.sandbox_crashed, 0u);
  ASSERT_LT(live.stats.sandbox_crashed, corpus.apps.size());

  config.resume = true;
  const auto resumed = CorpusRunner(pipeline, config).run(corpus);
  EXPECT_EQ(resumed.replayed, corpus.apps.size());
  EXPECT_EQ(resumed.analyzed, 0u);
  const auto live_json = report_jsons(live);
  const auto resumed_json = report_jsons(resumed);
  for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
    EXPECT_TRUE(resumed.outcomes[i].replayed);
    EXPECT_EQ(resumed.outcomes[i].sandbox_fate, live.outcomes[i].sandbox_fate);
    EXPECT_EQ(resumed.outcomes[i].fatal_signal, live.outcomes[i].fatal_signal);
    EXPECT_EQ(resumed_json[i], live_json[i]) << "app " << i;
  }
  expect_same_counts(resumed.stats, live.stats);
}

TEST(WorkerPool, FatedOutcomesJournalAndReplayIdentically) {
  check_fated_outcomes_journal_and_replay(0);
}

TEST(Isolation, FatedOutcomesJournalAndReplayIdentically) {
  check_fated_outcomes_journal_and_replay(1);
}

void check_only_clean_outcomes_are_cached(std::uint32_t recycle) {
  TempPath cache("cache");
  auto fixture = replicated_jobs(4);
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=always");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  RunnerConfig config = sandboxed(1, recycle);
  config.cache_dir = cache.path();

  {
    // Every app dies in the sandbox: a kill is an environment fact, not a
    // content fact, so nothing may be inserted.
    core::PipelineOptions options;
    options.faults = &plan;
    const core::DyDroid faulty(std::move(options));
    const auto first = CorpusRunner(faulty, config).run(fixture.jobs);
    EXPECT_EQ(first.stats.cache_misses, 4u);
    EXPECT_EQ(first.stats.cache_hits, 0u);
    const auto second = CorpusRunner(faulty, config).run(fixture.jobs);
    EXPECT_EQ(second.stats.cache_hits, 0u);  // nothing was cached
    EXPECT_EQ(second.stats.sandbox_crashed, 4u);
  }
  {
    // Clean sandboxed outcomes cache normally and serve identically.
    const core::DyDroid clean{core::PipelineOptions{}};
    const auto cold = CorpusRunner(clean, config).run(fixture.jobs);
    EXPECT_EQ(cold.stats.cache_hits, 0u);
    const auto warm = CorpusRunner(clean, config).run(fixture.jobs);
    EXPECT_EQ(warm.stats.cache_hits, 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(core::report_to_json(warm.outcomes[i].report),
                core::report_to_json(cold.outcomes[i].report));
    }
  }
}

TEST(WorkerPool, CleanPooledOutcomesCacheAndServeIdentically) {
  check_only_clean_outcomes_are_cached(0);
}

TEST(Isolation, FatedOutcomesAreNeverCachedButCleanOnesAre) {
  check_only_clean_outcomes_are_cached(1);
}

TEST(WorkerPool, ShardedPoolRunMatchesUnshardedThreadRun) {
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  for (const std::uint32_t recycle : kRecyclePolicies) {
    SCOPED_TRACE("recycle " + std::to_string(recycle));
    // Two sandboxed shards cover the corpus; every analyzed app must match
    // its thread-mode report, and the residue classes must partition.
    std::vector<bool> covered(corpus.apps.size(), false);
    for (std::uint32_t shard = 0; shard < 2; ++shard) {
      RunnerConfig config = sandboxed(2, recycle);
      config.shard_index = shard;
      config.shard_count = 2;
      const auto result = CorpusRunner(pipeline, config).run(corpus);
      for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
        if (i % 2 != shard) continue;
        EXPECT_FALSE(covered[i]);
        covered[i] = true;
        EXPECT_EQ(core::report_to_json(result.outcomes[i].report),
                  golden_json[i])
            << "app " << i << " in shard " << shard;
      }
    }
    for (std::size_t i = 0; i < covered.size(); ++i) {
      EXPECT_TRUE(covered[i]) << "app " << i << " analyzed by neither shard";
    }
  }
}

}  // namespace
}  // namespace dydroid::driver
