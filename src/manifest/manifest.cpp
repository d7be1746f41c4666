#include "manifest/manifest.hpp"

#include <algorithm>

#include "support/fault.hpp"
#include "support/strings.hpp"

namespace dydroid::manifest {

using support::ParseError;

std::string_view component_kind_name(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::Activity: return "activity";
    case ComponentKind::Service: return "service";
    case ComponentKind::Receiver: return "receiver";
    case ComponentKind::Provider: return "provider";
  }
  return "?";
}

namespace {
std::optional<ComponentKind> component_kind_from(std::string_view name) {
  if (name == "activity") return ComponentKind::Activity;
  if (name == "service") return ComponentKind::Service;
  if (name == "receiver") return ComponentKind::Receiver;
  if (name == "provider") return ComponentKind::Provider;
  return std::nullopt;
}
}  // namespace

bool Manifest::has_permission(std::string_view permission) const {
  return std::find(permissions.begin(), permissions.end(), permission) !=
         permissions.end();
}

void Manifest::add_permission(std::string_view permission) {
  if (!has_permission(permission)) permissions.emplace_back(permission);
}

const Component* Manifest::launcher_activity() const {
  for (const auto& c : components) {
    if (c.kind == ComponentKind::Activity && c.launcher) return &c;
  }
  return nullptr;
}

bool Manifest::has_component(std::string_view class_name) const {
  return std::any_of(components.begin(), components.end(),
                     [&](const Component& c) { return c.name == class_name; });
}

std::string Manifest::to_text() const {
  std::string out;
  out.reserve(128 + 48 * (permissions.size() + components.size()));
  out += "<manifest package=\"";
  out += package;
  out += "\" versionName=\"";
  out += version_name;
  out += "\">\n  <uses-sdk minSdkVersion=\"";
  out += std::to_string(min_sdk);
  out += "\"/>\n";
  for (const auto& p : permissions) {
    out += "  <uses-permission name=\"";
    out += p;
    out += "\"/>\n";
  }
  out += "  <application";
  if (!application_name.empty()) {
    out += " name=\"";
    out += application_name;
    out += '"';
  }
  out += ">\n";
  for (const auto& c : components) {
    out += "    <";
    out += component_kind_name(c.kind);
    out += " name=\"";
    out += c.name;
    out += '"';
    if (c.launcher) out += " launcher=\"true\"";
    out += "/>\n";
  }
  out += "  </application>\n</manifest>\n";
  return out;
}

namespace {

/// Extract the value of attr="value" on a line; nullopt if absent.
std::optional<std::string> attr_value(std::string_view line,
                                      std::string_view attr) {
  const std::string needle = std::string(attr) + "=\"";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) {
    throw ParseError("manifest: unterminated attribute " + std::string(attr));
  }
  return std::string(line.substr(start, end - start));
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Manifest Manifest::from_text(std::string_view text) {
  // Fault-injection site: malformed manifest (support::FaultInjector).
  if (support::fault_fire(support::FaultSite::kManifestParse)) {
    throw ParseError(support::fault_message(support::FaultSite::kManifestParse));
  }
  Manifest m;
  bool saw_manifest = false;
  for (const auto& raw_line : support::split(text, '\n')) {
    const auto line = trim(raw_line);
    if (line.empty()) continue;
    if (line.starts_with("<manifest")) {
      saw_manifest = true;
      if (auto pkg = attr_value(line, "package")) m.package = *pkg;
      if (auto ver = attr_value(line, "versionName")) m.version_name = *ver;
    } else if (line.starts_with("<uses-sdk")) {
      if (auto sdk = attr_value(line, "minSdkVersion")) {
        try {
          m.min_sdk = std::stoi(*sdk);
        } catch (const std::exception&) {
          throw ParseError("manifest: bad minSdkVersion: " + *sdk);
        }
      }
    } else if (line.starts_with("<uses-permission")) {
      if (auto name = attr_value(line, "name")) m.add_permission(*name);
    } else if (line.starts_with("<application")) {
      if (auto name = attr_value(line, "name")) m.application_name = *name;
    } else if (line.starts_with("<") && !line.starts_with("</")) {
      const auto tag_end = line.find_first_of(" />", 1);
      const auto tag = line.substr(1, tag_end - 1);
      if (auto kind = component_kind_from(tag)) {
        Component c;
        c.kind = *kind;
        if (auto name = attr_value(line, "name")) {
          c.name = *name;
        } else {
          throw ParseError("manifest: component without name");
        }
        if (auto launcher = attr_value(line, "launcher")) {
          c.launcher = (*launcher == "true");
        }
        m.components.push_back(std::move(c));
      }
    }
  }
  if (!saw_manifest || m.package.empty()) {
    throw ParseError("manifest: missing <manifest package=...>");
  }
  return m;
}

}  // namespace dydroid::manifest
