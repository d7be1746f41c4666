// Unit tests for the AndroidManifest analogue.
#include <gtest/gtest.h>

#include "manifest/manifest.hpp"

namespace dydroid::manifest {
namespace {

Manifest make_sample() {
  Manifest m;
  m.package = "com.example.game";
  m.version_name = "2.3";
  m.min_sdk = 16;
  m.application_name = "com.shield.Container";
  m.add_permission(kInternet);
  m.add_permission(kReadPhoneState);
  m.components.push_back(
      Component{ComponentKind::Activity, "com.example.game.Main", true});
  m.components.push_back(
      Component{ComponentKind::Service, "com.example.game.Sync", false});
  m.components.push_back(
      Component{ComponentKind::Receiver, "com.example.game.Boot", false});
  return m;
}

TEST(Manifest, TextRoundTrip) {
  const auto m = make_sample();
  const auto back = Manifest::from_text(m.to_text());
  EXPECT_EQ(back.package, m.package);
  EXPECT_EQ(back.version_name, "2.3");
  EXPECT_EQ(back.min_sdk, 16);
  EXPECT_EQ(back.application_name, "com.shield.Container");
  EXPECT_EQ(back.permissions, m.permissions);
  ASSERT_EQ(back.components.size(), 3u);
  EXPECT_EQ(back.components[0].name, "com.example.game.Main");
  EXPECT_TRUE(back.components[0].launcher);
  EXPECT_EQ(back.components[1].kind, ComponentKind::Service);
  EXPECT_FALSE(back.components[1].launcher);
}

TEST(Manifest, ToTextIsExact) {
  // The serialized form is what the SimApk stores and what the report and
  // perfbench digests hash: pin it byte for byte.
  auto m = make_sample();
  m.components.push_back(
      Component{ComponentKind::Provider, "com.example.game.Data", false});
  EXPECT_EQ(m.to_text(),
            "<manifest package=\"com.example.game\" versionName=\"2.3\">\n"
            "  <uses-sdk minSdkVersion=\"16\"/>\n"
            "  <uses-permission name=\"android.permission.INTERNET\"/>\n"
            "  <uses-permission "
            "name=\"android.permission.READ_PHONE_STATE\"/>\n"
            "  <application name=\"com.shield.Container\">\n"
            "    <activity name=\"com.example.game.Main\" launcher=\"true\"/>\n"
            "    <service name=\"com.example.game.Sync\"/>\n"
            "    <receiver name=\"com.example.game.Boot\"/>\n"
            "    <provider name=\"com.example.game.Data\"/>\n"
            "  </application>\n"
            "</manifest>\n");
  Manifest bare;
  bare.package = "a.b";
  bare.min_sdk = -3;
  EXPECT_EQ(bare.to_text(),
            "<manifest package=\"a.b\" versionName=\"1.0\">\n"
            "  <uses-sdk minSdkVersion=\"-3\"/>\n"
            "  <application>\n"
            "  </application>\n"
            "</manifest>\n");
}

TEST(Manifest, EmptyApplicationNameOmitted) {
  Manifest m;
  m.package = "a.b";
  const auto text = m.to_text();
  EXPECT_EQ(text.find("name=\""), std::string::npos);
  EXPECT_TRUE(Manifest::from_text(text).application_name.empty());
}

TEST(Manifest, AddPermissionIdempotent) {
  Manifest m;
  m.add_permission(kInternet);
  m.add_permission(kInternet);
  EXPECT_EQ(m.permissions.size(), 1u);
  EXPECT_TRUE(m.has_permission(kInternet));
  EXPECT_FALSE(m.has_permission(kSendSms));
}

TEST(Manifest, LauncherActivityFound) {
  const auto m = make_sample();
  const auto* launcher = m.launcher_activity();
  ASSERT_NE(launcher, nullptr);
  EXPECT_EQ(launcher->name, "com.example.game.Main");
}

TEST(Manifest, NoLauncherReturnsNull) {
  Manifest m;
  m.package = "a.b";
  m.components.push_back(
      Component{ComponentKind::Activity, "a.b.Hidden", false});
  EXPECT_EQ(m.launcher_activity(), nullptr);
}

TEST(Manifest, HasComponent) {
  const auto m = make_sample();
  EXPECT_TRUE(m.has_component("com.example.game.Sync"));
  EXPECT_FALSE(m.has_component("com.example.game.Missing"));
}

TEST(Manifest, MissingPackageThrows) {
  EXPECT_THROW((void)Manifest::from_text("<application/>"),
               support::ParseError);
}

TEST(Manifest, BadMinSdkThrows) {
  const auto text =
      "<manifest package=\"a.b\">\n  <uses-sdk minSdkVersion=\"abc\"/>\n";
  EXPECT_THROW((void)Manifest::from_text(text), support::ParseError);
}

TEST(Manifest, ComponentWithoutNameThrows) {
  const auto text = "<manifest package=\"a.b\">\n  <activity launcher=\"true\"/>\n";
  EXPECT_THROW((void)Manifest::from_text(text), support::ParseError);
}

TEST(Manifest, UnterminatedAttributeThrows) {
  EXPECT_THROW((void)Manifest::from_text("<manifest package=\"a.b>\n"),
               support::ParseError);
}

}  // namespace
}  // namespace dydroid::manifest
