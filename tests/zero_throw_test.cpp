// Zero-throw guard for the per-app success path. Benign apps (an ad SDK,
// the developer's own DexClassLoader, SDK-native loading; no fault, poison
// or crash trigger) must go through DyDroid::analyze without one C++
// throw: class-resolution misses are nullptr probes (vm::Vm::find_class),
// not caught VmExceptions. Throws are counted by a __cxa_throw interposer
// defined in this binary only, so the optimisation is pinned as a count
// rather than a timing.
#include <gtest/gtest.h>

#include <dlfcn.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "manifest/manifest.hpp"

namespace {
std::atomic<long> g_throws{0};
}  // namespace

// Every `throw` in this executable (the test and the statically linked
// dydroid libraries) calls __cxa_throw; this definition wins over
// libstdc++'s, counts, and forwards to it. The type_info parameter is
// spelled void*, as in the declaration GCC makes implicitly for `throw`.
extern "C" void __cxa_throw(void* object, void* type,
                            void (*destructor)(void*)) {
  using Fn = void (*)(void*, void*, void (*)(void*));
  static const auto real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "__cxa_throw"));
  g_throws.fetch_add(1, std::memory_order_relaxed);
  if (real == nullptr) std::abort();
  real(object, type, destructor);
  std::abort();  // unreachable: the real __cxa_throw does not return
}

namespace dydroid::core {
namespace {

#if defined(DYDROID_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(ZeroThrow, InterposerCountsLibraryThrows) {
  if (kSanitized) GTEST_SKIP() << "sanitizer runtimes intercept __cxa_throw";
  const auto before = g_throws.load();
  EXPECT_THROW((void)manifest::Manifest::from_text("no manifest here"),
               support::ParseError);
  EXPECT_EQ(g_throws.load() - before, 1);
}

TEST(ZeroThrow, BenignAppsAnalyzeWithoutThrowing) {
  if (kSanitized) GTEST_SKIP() << "sanitizer runtimes intercept __cxa_throw";
  constexpr int kApps = 36;
  std::vector<appgen::GeneratedApp> apps;
  for (int i = 0; i < kApps; ++i) {
    appgen::AppSpec spec;
    spec.package = "com.benign.app" + std::to_string(i);
    spec.category = "Tools";
    spec.write_external_permission = i % 4 != 0;  // some take the rewrite
    spec.ad_sdk = i % 3 != 2;
    spec.own_dex_dcl = i % 3 != 1;
    spec.sdk_native_dcl = i % 2 == 0;
    spec.dcl_on_click = i % 5 == 0;
    support::Rng rng(1000 + static_cast<std::uint64_t>(i));
    apps.push_back(appgen::build_app(spec, rng));
  }
  const DyDroid pipeline;

  const auto before = g_throws.load();
  for (int i = 0; i < kApps; ++i) {
    const std::function<void(os::Device&)> setup =
        [&scenario = apps[i].scenario](os::Device& device) {
          appgen::apply_scenario(scenario, device);
        };
    AnalysisRequest request;
    request.apk = apps[i].apk;
    request.seed = 42 + static_cast<std::uint64_t>(i);
    request.scenario_setup = &setup;
    const auto report = pipeline.analyze(request);
    EXPECT_EQ(report.status, DynamicStatus::kExercised)
        << apps[i].spec.package << ": " << report.crash_message;
    EXPECT_FALSE(report.binaries.empty()) << apps[i].spec.package;
  }
  EXPECT_EQ(g_throws.load() - before, 0)
      << "C++ throws on the benign per-app path";
}

}  // namespace
}  // namespace dydroid::core
