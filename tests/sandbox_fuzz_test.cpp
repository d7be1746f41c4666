// Sandbox RPC fuzz belt (tier 2, docs/ISOLATION.md): the two pool codecs
// are the only decoders of bytes that cross the process boundary.
// Whatever a dying child managed to emit — torn, bit-flipped, duplicated,
// padded or plain garbage — decode_pool_response must either reject it
// cleanly or return the original outcome, and decode_pool_request (the
// child's side of the same conversation) must do the same for requests;
// neither may ever throw. A full corpus run under injected RPC corruption
// must degrade app-by-app (quarantined crash outcomes) without corrupting
// any other app's report.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/sandbox.hpp"
#include "support/fault.hpp"

namespace dydroid::driver {
namespace {

AppOutcome sample_outcome() {
  AppOutcome outcome;
  outcome.report.package = "com.sandbox.fuzz";
  outcome.report.status = core::DynamicStatus::kExercised;
  outcome.seed = 0xBE9C0011ull;
  outcome.wall_ms = 3.25;
  outcome.attempts = 1;
  return outcome;
}

PoolRequest sample_request() {
  PoolRequest request;
  request.app_index = 9;
  request.attempt = 1;
  request.seed = 0xBE9C0011ull;
  request.worker = 3;
  request.crash_child = true;
  return request;
}

/// One codec under fuzz: a valid message, and a verdict on arbitrary bytes
/// — nullopt when the decoder rejected them, else whether the decoded
/// value reproduces the original message's content exactly.
struct Codec {
  const char* name;
  support::Bytes message;
  std::function<std::optional<bool>(std::span<const std::uint8_t>)> decode;
};

std::vector<Codec> codecs() {
  const AppOutcome outcome = sample_outcome();
  const PoolRequest request = sample_request();
  return {
      {"response", encode_pool_response(9, outcome),
       [outcome](std::span<const std::uint8_t> data) -> std::optional<bool> {
         const auto decoded = decode_pool_response(data);
         if (!decoded.ok()) return std::nullopt;
         return decoded.value().index == 9 &&
                decoded.value().outcome.seed == outcome.seed &&
                core::report_to_json(decoded.value().outcome.report) ==
                    core::report_to_json(outcome.report);
       }},
      {"request", encode_pool_request(request),
       [request](std::span<const std::uint8_t> data) -> std::optional<bool> {
         const auto decoded = decode_pool_request(data);
         if (!decoded.ok()) return std::nullopt;
         const PoolRequest& got = decoded.value();
         return got.app_index == request.app_index &&
                got.attempt == request.attempt && got.seed == request.seed &&
                got.worker == request.worker &&
                got.crash_child == request.crash_child;
       }},
  };
}

TEST(SandboxFuzz, EveryTruncationFailsCleanly) {
  for (const auto& codec : codecs()) {
    SCOPED_TRACE(codec.name);
    ASSERT_EQ(codec.decode(codec.message), std::optional<bool>(true));
    for (std::size_t keep = 0; keep < codec.message.size(); ++keep) {
      EXPECT_FALSE(codec.decode(std::span<const std::uint8_t>(
                                    codec.message.data(), keep))
                       .has_value())
          << "prefix of " << keep << " bytes decoded";
    }
  }
}

TEST(SandboxFuzz, EverySingleBitFlipIsRejectedOrEquivalent) {
  for (const auto& codec : codecs()) {
    SCOPED_TRACE(codec.name);
    for (std::size_t byte = 0; byte < codec.message.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        support::Bytes mutated = codec.message;
        mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
        // Must not throw; a CRC-colliding accept would have to decode to
        // the same content, anything else is corruption leaking through.
        const auto verdict = codec.decode(mutated);
        if (verdict.has_value()) {
          EXPECT_TRUE(*verdict) << "flip at byte " << byte << " bit " << bit
                                << " decoded to different content";
        }
      }
    }
  }
}

TEST(SandboxFuzz, StructuralMutationsAreRejected) {
  for (const auto& codec : codecs()) {
    SCOPED_TRACE(codec.name);
    const support::Bytes& message = codec.message;

    // A duplicated frame: two records where the protocol demands one.
    support::Bytes doubled = message;
    doubled.insert(doubled.end(), message.begin() + 8, message.end());
    EXPECT_FALSE(codec.decode(doubled).has_value());

    // Trailing garbage after the valid frame parses as a torn second frame.
    support::Bytes padded = message;
    for (int i = 0; i < 11; ++i) padded.push_back(0xAB);
    EXPECT_FALSE(codec.decode(padded).has_value());

    // Wrong magic: a journal file (or anything else) fed to the sandbox.
    support::Bytes wrong_magic = message;
    wrong_magic[0] = 'X';
    EXPECT_FALSE(codec.decode(wrong_magic).has_value());

    // Pure noise of assorted sizes.
    for (const std::size_t size : {1u, 8u, 16u, 64u, 333u}) {
      support::Bytes noise(size);
      for (std::size_t i = 0; i < size; ++i) {
        noise[i] = static_cast<std::uint8_t>(i * 37u + 5u);
      }
      EXPECT_FALSE(codec.decode(noise).has_value()) << "noise size " << size;
    }
  }
}

TEST(SandboxFuzz, PipeCorruptionNeverCorruptsTheRun) {
  appgen::CorpusConfig corpus_config;
  corpus_config.scale = 0.002;
  const auto corpus = appgen::generate_corpus(corpus_config);

  // Thread-mode golden: what every app reports when nothing is injected.
  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 2;
  const auto golden = CorpusRunner(clean, thread_config).run(corpus);

  const auto plan_result = support::FaultPlan::parse("sandbox.pool.rpc=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();
  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid faulty(std::move(options));

  RunnerConfig config;
  config.jobs = 2;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(faulty, config).run(corpus);

  ASSERT_EQ(result.outcomes.size(), corpus.apps.size());
  std::size_t torn = 0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const auto& outcome = result.outcomes[i];
    if (outcome.sandbox_fate != SandboxFate::kNone) {
      // The damaged response cost this app its result — quarantined
      // crash — and nothing else.
      ++torn;
      EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kCrashed);
      EXPECT_TRUE(outcome.quarantined);
      EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
    } else {
      EXPECT_EQ(core::report_to_json(outcome.report),
                core::report_to_json(golden.outcomes[i].report))
          << "untouched app " << i << " diverged";
    }
  }
  // p:0.5 over a few dozen apps: both populations must be non-empty for
  // the assertions above to mean anything.
  EXPECT_GT(torn, 0u);
  EXPECT_LT(torn, result.outcomes.size());
  EXPECT_EQ(result.stats.sandbox_crashed, torn);
  EXPECT_EQ(result.stats.apps, corpus.apps.size());
}

}  // namespace
}  // namespace dydroid::driver
