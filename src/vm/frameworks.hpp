// Framework API surface served as intrinsics: class loaders, JNI loading,
// java.io files & streams, java.net URLs, telephony/location/accounts/
// package-manager privacy sources, logging/SMS sinks, system services, and
// the libc pseudo-syscalls reachable from native code.
//
// The surface is identical for every app, so it lives in one immutable
// process-wide table that every Vm points at: building it is paid once per
// process, and runner threads share it without locks.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "vm/value.hpp"

namespace dydroid::vm {

class Vm;

/// Signature of a framework intrinsic. Intrinsics are stateless: everything
/// they touch comes in through the Vm and the arguments.
using Intrinsic = Value (*)(Vm&, const std::vector<Value>&);

class Framework {
 public:
  /// The process-wide table, built on first use (thread-safe).
  static const Framework& get();

  /// The intrinsic `cls.method` dispatches to: declared on `cls` or
  /// inherited along its framework superclass chain (e.g.
  /// HttpsURLConnection.getInputStream -> URLConnection). Null when none.
  [[nodiscard]] Intrinsic find(std::string_view cls,
                               std::string_view method) const;
  /// True for every class declared by the framework (the boot loader
  /// resolves them).
  [[nodiscard]] bool declares(std::string_view cls) const {
    return classes_.contains(cls);
  }

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

 private:
  Framework();

  using Key = std::pair<std::string_view, std::string_view>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      const std::hash<std::string_view> h;
      return h(key.first) * 31 + h(key.second);
    }
  };

  // Owns every name; the views below point into its (stable) nodes.
  std::unordered_set<std::string> names_;
  std::unordered_set<std::string_view> classes_;
  // (class, method) -> intrinsic, flattened over each class's superclasses.
  std::unordered_map<Key, Intrinsic, KeyHash> methods_;
};

}  // namespace dydroid::vm
