#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench/bench.hpp"
#include "support/strings.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

std::size_t bench_jobs() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

Fingerprint fingerprint(std::size_t jobs) {
  Fingerprint fp;
  fp.nproc = std::max(1u, std::thread::hardware_concurrency());
  fp.cpu_model = cpu_model();
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.jobs = jobs;
  return fp;
}

std::string to_json(const Fingerprint& fp) {
  return support::format(
      "{\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"jobs\": %zu}",
      fp.nproc, json_escape(fp.cpu_model).c_str(),
      json_escape(fp.compiler).c_str(), json_escape(fp.build_type).c_str(),
      fp.jobs);
}

double cpu_ms() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    if (::getrusage(who, &usage) == 0) {
      total += timeval_ms(usage.ru_utime) + timeval_ms(usage.ru_stime);
    }
  }
  return total;
}

double peak_rss_mb() {
  long peak_kb = 0;  // NOLINT(google-runtime-int) rusage field type
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    if (::getrusage(who, &usage) == 0) {
      peak_kb = std::max(peak_kb, usage.ru_maxrss);
    }
  }
  return static_cast<double>(peak_kb) / 1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
