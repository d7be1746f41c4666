// Committed digest of the per-app reports `dydroid survey` produces for a
// small corpus (scale 0.005, seed 20161101: 294 apps). Every other
// equivalence suite compares the system with itself; this one compares it
// with a table committed in the repo, so a change that moves any report
// field, in any mode, fails here and names the first app and field that
// moved.
//
// Regenerate with
//
//   DYDROID_PRINT_GOLDEN=1 build/tests/report_golden_test --gtest_filter='ReportGolden.*'
//
// and paste the printed digest and table over kGoldenDigest/kGoldenRows; a
// regeneration changes what the survey reports, so CHANGES.md must say why
// it was needed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "malware/families.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace dydroid {
namespace {

/// One top-level member of a report_to_json object: its key and its
/// rendered text (key line through the last line before the next key).
struct Field {
  std::string name;
  std::string text;
};

/// Split a pretty-printed report into its top-level members. Keys sit on
/// lines indented by exactly two spaces; nested content is indented deeper.
std::vector<Field> top_level_fields(const std::string& json) {
  std::vector<Field> fields;
  std::size_t pos = 0;
  while (pos < json.size()) {
    const auto end = json.find('\n', pos);
    const auto line = json.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos + 1);
    pos = end == std::string::npos ? json.size() : end + 1;
    if (line.rfind("  \"", 0) == 0) {
      const auto close = line.find('"', 3);
      fields.push_back({line.substr(3, close - 3), {}});
    }
    if (!fields.empty()) fields.back().text += line;
  }
  return fields;
}

/// Four hex digits per top-level field (key included, so an added or
/// dropped optional field shows at its position), joined by '.'.
std::string field_digests(const std::vector<Field>& fields) {
  std::string out;
  for (const auto& field : fields) {
    if (!out.empty()) out += '.';
    out += support::sha256(field.name + "\n" + field.text).hex().substr(0, 4);
  }
  return out;
}

struct GoldenRow {
  std::string_view package;
  std::string_view report;  // first 16 hex digits of the report's SHA-256
  std::string_view fields;  // field_digests() of the report
};

constexpr std::string_view kGoldenDigest =
    "f6f8ec811971fca219f160ec0001f5b9c206144e818525a2ac9427b87f9fa573";
constexpr GoldenRow kGoldenRows[] = {
    {"com.print.join0", "5c099b9985a70707", "5927.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.parser.backup1", "0ff5d5a8a7ec04e1", "b69e.9329.9c38.f2e6.6c4d.0240.c6b9.73e0.e47f.bd3a"},
    {"com.review.group2", "49b13b01407e64f9", "dbdd.7ddc.9c38.f2e6.84bd.0240.c6b9.8c42.5846.bd3a"},
    {"com.log.walk3", "0ddc4f7e7594ed5b", "cdb6.9329.9c38.f2e6.6c4d.0240.c6b9.b0d4.8381.bd3a"},
    {"com.detail.method4", "0d0b09b7171c5ae4", "c1f3.7ddc.9c38.a2de.dcae.0240.c6b9.16d4.4d2a.bd3a"},
    {"com.type.render5", "63f720abf9dc9b43", "234d.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.panel.dialog6", "7d71c50d1b9b2e8d", "ec9d.7ddc.9c38.f2e6.eec8.0240.c6b9.360d.367b.bd3a"},
    {"com.reward.result7", "9bef55d1d0b2f213", "40a9.7ddc.9c38.a2de.350d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.down.first8", "2c7b0dc6bb2b5641", "f749.7ddc.9c38.f2e6.84bd.0240.c6b9.c649.34bd.bd3a"},
    {"com.pin.video9", "fe89fba2e8de6a8a", "b593.7ddc.9c38.a2de.dcae.0240.c6b9.3016.ddab.bd3a"},
    {"com.update.default10", "65fc11b32525ca27", "f24c.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.chart.file11", "d6cb0d9d7564996e", "5ca1.9329.9c38.f2e6.eec8.0240.c6b9.87b7.1133.bd3a"},
    {"com.avatar.content12", "8c9451e5c327f023", "3573.7ddc.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.delete.sender13", "9cad9e3995bfbcb8", "d82f.7ddc.9c38.f2e6.84bd.0240.c6b9.2078.31bd.bd3a"},
    {"com.full.right14", "62cf861ed9726570", "3671.7ddc.9c38.f2e6.84bd.0240.c6b9.ea7e.e764.bd3a"},
    {"com.chart.rank15", "ced1c7413332259a", "aa7e.7ddc.9c38.e7ff.d91c.0240.c6b9.1631.b665.bd3a"},
    {"com.form.mark16", "1651751a1a724cfa", "8ae3.7ddc.9c38.a2de.035f.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.paint.radio17", "7a8dbc3a0eefa84f", "fc9f.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.edit.reset18", "0b5d39e31381f5d1", "3ead.7ddc.9c38.12e6.eec8.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.ring.core19", "9f2ed9e4d9574d45", "f6ae.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.cover.goal20", "cd4a659ef6a70c25", "244b.9329.9c38.e7ff.dcae.0240.c6b9.8c13.ddcf.bd3a"},
    {"com.delete.week21", "ac1ed6370fde3693", "5d8c.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.rating.common22", "a828cd35f663a9dd", "6d57.7ddc.9c38.e7ff.dcae.0240.c6b9.1737.b918.bd3a"},
    {"com.pager.output23", "c0fcfd670a1dda87", "9904.7ddc.9c38.e7ff.d91c.0240.c6b9.e3ae.884b.bd3a"},
    {"com.widget.range24", "19a808649de938bc", "3f4e.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.test.render25", "64ca76cd573933fa", "7c60.9329.9c38.a2de.350d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.banner.bridge26", "43c130cc903da4d8", "2946.7ddc.9c38.f2e6.84bd.0240.c6b9.31d4.a7c5.bd3a"},
    {"com.stack.first27", "4e5013e4a0443d4b", "d65a.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.queue.alert28", "b1c1d3321de14699", "ad49.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.auth.time29", "b57d7c9d9b7987ae", "f1fe.7ddc.9c38.f2e6.84bd.0240.c6b9.488f.63af.bd3a"},
    {"com.swipe.link30", "04d982e20efc05c8", "e34e.9329.9c38.f2e6.6c4d.0240.c6b9.9f0e.149a.bd3a"},
    {"com.object.method31", "518ac07fa9976cc3", "43b5.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.delete.body32", "f16c2cb206d77c70", "fe35.7ddc.9c38.a2de.d91c.0240.c6b9.e51f.2ff4.bd3a"},
    {"com.resource.night33", "3ce63b7008826d5c", "ff64.7ddc.9c38.e7ff.dcae.ac9b.4ba9.c6b9.09fd.7fd3.bd3a"},
    {"com.span.archive34", "b95c29f234b3d0cd", "b930.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.code.recycle35", "efd560488f014dd8", "2165.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.popup.small36", "e99027cf691c6900", "6b69.7ddc.9c38.f2e6.8590.0240.c6b9.8276.7d72.bd3a"},
    {"com.set.resize37", "6ee0e71e2ad30467", "71c3.9329.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.archive.tile38", "25f95f874aa6240a", "c886.9329.9c38.f2e6.6c4d.e890.e9d2.c6b9.09fd.7fd3.bd3a"},
    {"com.anim.seek39", "49bf54ad013fdca0", "79b0.7ddc.9c38.e7ff.d91c.0240.c6b9.69cd.8edb.bd3a"},
    {"com.call.read40", "ab4f9e4fa63bac05", "eef0.9329.9c38.f2e6.6c4d.0240.c6b9.3866.7047.bd3a"},
    {"com.browser.span41", "d5caeecf9276e66d", "49c4.7ddc.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.shell.card42", "d45a25aadd4bb3fa", "5826.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.trash.clean43", "6ed66fcf7116d075", "075b.9329.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.food.head44", "9667634a0826ac27", "2c53.7ddc.9c38.e7ff.dcae.0240.c6b9.0569.92f2.bd3a"},
    {"com.pin.tracker45", "d0a8e6a163800a81", "f7c7.9329.9c38.a2de.d91c.0240.c6b9.e04a.fcd6.bd3a"},
    {"com.text.counter46", "f2831583d6631a05", "0b48.7ddc.9c38.f2e6.6c4d.0240.c6b9.7014.0d2c.bd3a"},
    {"com.source.tile47", "c32fe6787bd69acb", "c550.7ddc.9c38.a2de.d91c.0240.c6b9.408d.eec9.bd3a"},
    {"com.storage.pager48", "8978424c3a0cc102", "1a83.7ddc.9c38.a2de.350d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.write.download49", "27d0a539425cc671", "d519.9329.9c38.a2de.dcae.0240.c6b9.f44d.d67e.bd3a"},
    {"com.model.review50", "7add807a83145c73", "31c8.9329.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.list.close51", "fea6136fe3a615d1", "a01c.7ddc.9c38.f2e6.6c4d.0240.c6b9.1458.27a3.bd3a"},
    {"com.archive.row52", "af15a748a29e70a9", "27f9.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.friend.project53", "39ce1ac19834d106", "790e.9329.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.value.date54", "37dee65e77e3825a", "7d97.7ddc.9c38.e7ff.dcae.0240.c6b9.8953.5fc0.bd3a"},
    {"com.sketch.fail55", "cf60a06a0682bd00", "b9f3.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.card.block56", "9faaad27a405413d", "fdae.7ddc.9c38.a2de.350d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.reload.reload57", "90ba1453a79bf584", "8542.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.convert.create58", "6697986aa9edea4f", "20c3.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.comment.script59", "8d51a924b1c5a6cb", "9355.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.receiver.state60", "bd70a9f3d15dcb75", "3773.9329.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.flash.clear61", "9bf2a36b3e9b32ae", "1e6c.7ddc.9c38.f2e6.6c4d.0240.c6b9.6e73.1fc4.bd3a"},
    {"com.toggle.restart62", "f7e780f0ceed74fc", "2de1.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.refresh.month63", "00ec5140497d912f", "b071.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.walk.ticket64", "052af32cfa2e2022", "9022.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.score.auth65", "471923d74b8029ef", "0da1.9329.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.success.download66", "2ce2ab0e80747235", "1643.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.alert.mute67", "450a13436e94bf17", "0dda.7ddc.9c38.f2e6.eec8.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.utils.request68", "8098797771537ada", "5267.7ddc.9c38.a2de.d91c.0240.c6b9.1632.0da4.bd3a"},
    {"com.icon.submit69", "202b8ea69e04a03b", "09b2.7ddc.9c38.a2de.d91c.0240.c6b9.4128.1a32.bd3a"},
    {"com.sheet.offer70", "b4cff04ea77a4d13", "1f8f.7ddc.9c38.e7ff.d91c.0240.c6b9.60e6.5b1a.bd3a"},
    {"com.template.top71", "96bf7b35719a1276", "f0ad.7ddc.9c38.a2de.d91c.0240.c6b9.aa7f.3815.bd3a"},
    {"com.toolbar.web72", "3356048e7565bb2f", "1f89.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.send.detail73", "9a8fddf959e98105", "fd31.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.router.chain74", "a033504b25cec3ce", "70d6.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.bridge.recent75", "6dd0e82fe69f63de", "32f3.7ddc.9c38.f2e6.6c4d.0240.c6b9.5558.6ebe.bd3a"},
    {"com.launch.base76", "d8577c5332013797", "fd36.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.replace.install77", "f78648495fbf94c8", "9294.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.feed.project78", "6a956838ff45e302", "e6af.7ddc.9c38.e7ff.d91c.0240.c6b9.23bb.1c0b.bd3a"},
    {"com.rating.core79", "43ebbd82ac532dbf", "7462.7ddc.9c38.a2de.d91c.0240.c6b9.d6f2.9f8e.bd3a"},
    {"com.wrapper.action80", "2446406f6fee47f6", "b478.7ddc.9c38.e7ff.dcae.0240.c6b9.5085.f0ed.bd3a"},
    {"com.chooser.line81", "0cb3567e73b401a3", "7494.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.catalog.move82", "8b5e98ea9bcc0be3", "dcc4.9329.9c38.f2e6.6c4d.0240.c6b9.bcfb.f3d2.bd3a"},
    {"com.tile.second83", "80e3fecd35c468aa", "59d7.7ddc.9c38.f2e6.6c4d.0240.c6b9.c26a.0d47.bd3a"},
    {"com.random.owner84", "d68f5979b3520413", "8dcb.9329.9c38.f2e6.eec8.0240.c6b9.8f28.c03f.bd3a"},
    {"com.close.head85", "c2ff443af916a36b", "8e96.7ddc.9c38.f2e6.eec8.0240.c6b9.3f06.6ece.bd3a"},
    {"com.handle.social86", "2d9c13d5b593cd45", "8312.9329.9c38.a2de.d91c.0240.c6b9.2abd.6d66.bd3a"},
    {"com.provider.sleep87", "7de29c9acc6f8d5d", "6add.9329.9c38.a2de.350d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.parser.context88", "4536615b7fe80fa2", "0389.9329.9c38.f2e6.84bd.0240.c6b9.dc43.f71a.bd3a"},
    {"com.visit.current89", "21fcbe844610094d", "f95a.7ddc.9c38.f2e6.84bd.0240.c6b9.5ffb.eed8.bd3a"},
    {"com.single.request90", "874f47508eeca893", "afbb.7ddc.9c38.f2e6.84bd.0240.c6b9.ce29.6fd5.bd3a"},
    {"com.provider.layer91", "b6b24d1721f95de4", "d27c.7ddc.9c38.a2de.dcae.0240.c6b9.7f64.927a.bd3a"},
    {"com.count.fragment92", "1df4b3234e827a55", "e191.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.replace.week93", "fe3edae6ca78fb7f", "b22b.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.fill.traffic94", "11bc9926f09b33c9", "f0b8.7ddc.9c38.a2de.d91c.0240.c6b9.9d0e.dacb.bd3a"},
    {"com.picture.extra95", "d10038f5e94c0aba", "5399.7ddc.9c38.f2e6.84bd.0240.c6b9.8bff.301a.bd3a"},
    {"com.counter.client96", "9a64cdc85623576b", "2b0b.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.trim.unit97", "1dfa6fa089c73b1e", "a885.7ddc.9c38.a2de.d91c.0240.c6b9.434e.bf04.bd3a"},
    {"com.child.handler98", "4f49f48fb70868f1", "83c7.9329.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.web.theme99", "832635c278560802", "ad83.7ddc.9c38.f2e6.84bd.0240.c6b9.b8e0.ca6a.bd3a"},
    {"com.value.story100", "4db54d3ed8bd654b", "e028.7ddc.9c38.f2e6.84bd.0240.c6b9.171f.fdd9.bd3a"},
    {"com.launcher.review101", "04e5551bb0b5bea5", "3687.7ddc.9c38.f2e6.84bd.0240.c6b9.6632.c24e.bd3a"},
    {"com.post.mute102", "4bea69477e3b37e0", "8886.9329.9c38.f2e6.6c4d.0240.c6b9.030e.12a2.bd3a"},
    {"com.mark.call103", "c12562b0fd546e4e", "2dfc.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.context.value104", "96791854833d85fb", "8d20.9329.9c38.f2e6.6c4d.0240.c6b9.a68c.f40e.bd3a"},
    {"com.cell.mute105", "1906088ec1bb268b", "4303.7ddc.9c38.a2de.d91c.0240.c6b9.1ff5.dd6f.bd3a"},
    {"com.gift.online106", "40e8014a90b990d2", "4c69.9329.9c38.f2e6.84bd.0240.c6b9.ea04.02cf.3e9a"},
    {"com.editor.restore107", "8d807046bef4ad27", "c599.9329.9c38.f2e6.84bd.0240.c6b9.8959.ff64.bd3a"},
    {"com.body.number108", "57a87a051b37e065", "17d1.7ddc.9c38.e7ff.d91c.0240.c6b9.12c5.68fe.bd3a"},
    {"com.point.splash109", "592d36b779684f4a", "c3ad.7ddc.9c38.f2e6.84bd.0240.c6b9.d2ac.2a8e.bd3a"},
    {"com.server.size110", "759294f4022c4bd2", "ba1f.7ddc.9c38.12e6.8590.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.reward.cart111", "1f66f7a4e02d2829", "7a59.9329.9c38.f2e6.6c4d.0240.c6b9.6fdc.8104.bd3a"},
    {"com.visit.tab112", "957ba62a4f2b9d33", "d73d.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.rank.history113", "f63d3fbd41b783f6", "57cb.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.location.bridge114", "3a125d51e0570ebe", "e63d.9329.9c38.a2de.d91c.0240.c6b9.2cd9.7753.bd3a"},
    {"com.clean.set115", "d88d191bf6beced5", "2b6f.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.module.test116", "6d20dfe53dc5b05a", "998f.7ddc.9c38.f2e6.84bd.0240.c6b9.74f4.02c0.bd3a"},
    {"com.project.next117", "2a1df3f0a5d56951", "1b4d.7ddc.9c38.f2e6.84bd.0240.c6b9.42ce.468b.bd3a"},
    {"com.head.loop118", "76f4ea1ec2b7cdb0", "899d.9329.9c38.a2de.d91c.0240.c6b9.11a8.d5e2.bd3a"},
    {"com.font.splash119", "cd03efc8e0aea57f", "7f32.7ddc.9c38.f2e6.84bd.0240.c6b9.9994.5edd.bd3a"},
    {"com.map.queue120", "e4191c69d6b4c829", "b80c.7ddc.9c38.f2e6.6c4d.0240.c6b9.0f3b.737d.bd3a"},
    {"com.ticket.run121", "f4eb9e9b4e7ccb4b", "3563.9329.9c38.a2de.dcae.0240.c6b9.b88b.b0dd.bd3a"},
    {"com.config.move122", "2251c72a5af1d04f", "28e1.7ddc.9c38.f2e6.6c4d.0240.c6b9.6906.f757.bd3a"},
    {"com.status.header123", "3795afd09fc6cf91", "3e16.9329.9c38.f2e6.6c4d.0240.c6b9.d8a9.3524.bd3a"},
    {"com.panel.track124", "54fae3e34d581699", "2f05.7ddc.9c38.a2de.d91c.0240.c6b9.09a7.89de.bd3a"},
    {"com.build.header125", "084a00b0c1f7cc87", "2983.7ddc.9c38.e7ff.d91c.0240.c6b9.a04b.b046.bd3a"},
    {"com.game.dialog126", "e7f34ae728b241ea", "eba4.7ddc.9c38.f2e6.eec8.0240.c6b9.689f.4ac6.bd3a"},
    {"com.next.feed127", "c5d508e9a78913fa", "5f42.7ddc.9c38.a2de.dcae.0240.c6b9.dc9c.d892.bd3a"},
    {"com.column.close128", "8a88b47c5927ffd5", "bfaf.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.visit.digest129", "427395cc3ba12eac", "dc2b.9329.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.find.rating130", "f9891263641696f1", "cba6.7ddc.9c38.a2de.d91c.0240.c6b9.c7a1.f3f6.bd3a"},
    {"", "8f4dac1aa0dcca1e", "17f4.1b99.fcd5.12e6.3707.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.team.undo132", "cff99654396072cf", "ffd2.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.swap.clock133", "aa689e294ff81679", "7281.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.move.native134", "c0aba8aeea587759", "73a2.9329.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.title.edit135", "74642a54b481ce29", "9a3f.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.center.settings136", "e0d87df80f9a970a", "68bd.7ddc.9c38.f2e6.84bd.0240.c6b9.3d14.2142.bd3a"},
    {"com.team.handler137", "1a7be9041221ac12", "980c.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.notify.swipe138", "fc692568807d2a90", "2ca4.9329.9c38.a2de.035f.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.recent.fade139", "527750042083086d", "ba92.7ddc.9c38.f2e6.6c4d.0240.c6b9.9b89.d787.bd3a"},
    {"com.register.chart140", "b5827fc4990ab74b", "a4d2.7ddc.9c38.a2de.dcae.0240.c6b9.b881.f902.bd3a"},
    {"com.daily.zoom141", "e09c1eae8e31aaf1", "b625.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.goal.dispatch142", "b6c55461e3a57969", "008b.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.hide.request143", "fa8d827fbf721202", "0ad5.7ddc.9c38.e7ff.035f.0240.c6b9.6f66.a91a.bd3a"},
    {"com.rating.launcher144", "3a8a7d0f111c9655", "f554.7ddc.9c38.a2de.d91c.ac9b.4ba9.c6b9.09fd.7fd3.bd3a"},
    {"com.sound.popup145", "f7b049d6d3eed654", "4e5f.7ddc.9c38.e7ff.dcae.0240.c6b9.cda4.a7c8.bd3a"},
    {"com.parser.support146", "ccf9c45438fa8cbc", "f8f0.9329.9c38.a2de.dcae.e890.e9d2.c6b9.09fd.7fd3.bd3a"},
    {"com.output.float147", "7b1f1471d069c57c", "0f73.7ddc.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.container.storage148", "cbefc94c1c051227", "acb5.7ddc.9c38.f2e6.84bd.0240.c6b9.18d7.f011.bd3a"},
    {"com.refresh.full149", "e487b606549984af", "badc.7ddc.9c38.f2e6.84bd.0240.c6b9.bcc1.7614.bd3a"},
    {"com.run.resource150", "4d68a0ae73d9d626", "9725.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.proxy.boot151", "4681504b55bb4528", "be1e.7ddc.9c38.f2e6.8590.0240.c6b9.4c27.7d10.bd3a"},
    {"com.error.feed152", "f69213a91940ab75", "c8a4.7ddc.9c38.f2e6.6c4d.0240.c6b9.1594.2531.bd3a"},
    {"com.fill.clock153", "0848458df0338237", "eb34.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.native.context154", "28fb406bbb5333d5", "7d54.9329.9c38.f2e6.6c4d.0240.c6b9.ba2d.627a.bd3a"},
    {"com.retry.publish155", "d9b451bc025cb0a3", "5fce.9329.9c38.e7ff.d91c.0240.c6b9.b16d.fe93.bd3a"},
    {"com.push.key156", "b8739fffde95d839", "94f7.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.hour.server157", "1fe2f46bffbd9768", "8013.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.line.page158", "b95724a5b1ea6a24", "f1df.9329.9c38.e7ff.dcae.0240.c6b9.02c8.041b.bd3a"},
    {"com.clip.time159", "12e39e991cca43ad", "4755.7ddc.9c38.f2e6.84bd.0240.c6b9.082f.6f35.bd3a"},
    {"com.remote.pull160", "a171525afcbf64ac", "4201.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.next.gallery161", "674f8c3ba1125b5a", "c65a.7ddc.9c38.a2de.d91c.0240.c6b9.4321.886a.bd3a"},
    {"com.color.user162", "1f27e65b24eb03e7", "7ee2.7ddc.9c38.e7ff.035f.0240.c6b9.503f.9c9f.bd3a"},
    {"com.social.open163", "9d5492e324f34940", "81dd.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.backup.front164", "5d87e63ee27307c2", "770e.9329.9c38.a2de.d91c.0240.c6b9.7e44.88a2.bd3a"},
    {"com.focus.pack165", "af11c91953ebe9ce", "690c.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.refresh.flow166", "79e210183d43a52e", "b847.7ddc.9c38.f2e6.84bd.0240.c6b9.4dc1.92b8.bd3a"},
    {"com.span.work167", "a9fb1fe30c49a7d9", "f6f4.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.screen.support168", "289a3da4908b92d6", "9a57.7ddc.9c38.f2e6.84bd.0240.c6b9.cb02.37fd.bd3a"},
    {"com.member.cover169", "9db98ea719d391b9", "fdd0.7ddc.9c38.f2e6.84bd.0240.c6b9.5308.416e.bd3a"},
    {"com.instance.scanner170", "7dea74a51412da74", "fb26.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.layout.content171", "3a39ab4271366114", "7994.7ddc.9c38.a2de.d91c.0240.c6b9.e684.aa91.bd3a"},
    {"com.thread.analytics172", "96b86d3e881df315", "734f.7ddc.9c38.f2e6.84bd.0240.c6b9.4537.b18c.bd3a"},
    {"com.count.version173", "818614eb91e05515", "2fcc.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.slider.poll174", "bbe1073b90b8bdfe", "f939.7ddc.9c38.f2e6.6c4d.0240.c6b9.671a.2822.bd3a"},
    {"com.convert.signal175", "3a639a32bd28a873", "72e5.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.local.draft176", "51289618d3e6aee8", "4d21.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.sub.pay177", "0610ad1191191b62", "12b8.9329.9c38.a2de.dcae.0240.c6b9.5410.c3b5.bd3a"},
    {"com.compat.collect178", "90ad41369718d97e", "10d1.7ddc.9c38.f2e6.84bd.0240.c6b9.02cd.2ca6.bd3a"},
    {"com.body.network179", "2681b6ddc9a1d563", "70ab.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.font.left180", "83c27753a5ebe896", "90b1.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.service.drive181", "cc4f1856fdb518fc", "2b07.9329.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.resource.message182", "289e0e8d8d5db5b5", "bc95.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.message.code183", "90bceff8a6a23015", "08da.9329.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.wallet.rotate184", "e512971b9ed643f5", "7128.9329.9c38.f2e6.84bd.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.entry.inbox185", "4eac26de433e4161", "174d.9329.9c38.e7ff.dcae.0240.c6b9.4931.58f8.bd3a"},
    {"com.init.query186", "9ffa5ab5590a0f81", "3121.7ddc.9c38.a2de.d91c.0240.c6b9.2938.7ecd.bd3a"},
    {"com.web.story187", "db1bcb812a7fdf8c", "2996.9329.9c38.a2de.d91c.0240.c6b9.fe86.bc53.bd3a"},
    {"com.utils.down188", "8a46d61c3bcd5bfa", "9584.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.total.builder189", "27a543dbfb080403", "2a23.7ddc.9c38.e7ff.dcae.0240.c6b9.fe40.9ce0.bd3a"},
    {"com.suggest.unpack190", "31ece00d4080c40e", "bf78.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.tile.tile191", "ad2266d12f902cf4", "e4fc.9329.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.open.team192", "0d239bef8896b4f5", "68ee.7ddc.9c38.a2de.dcae.0240.c6b9.404b.971f.bd3a"},
    {"com.weather.space193", "8249cb2aff4bd25e", "cb0b.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.redo.sign194", "9d584f477d2bf87f", "1a07.7ddc.9c38.e7ff.d91c.0240.c6b9.9937.0c4e.bd3a"},
    {"com.item.parse195", "cb52b2fd6db301f1", "70af.7ddc.9c38.a2de.035f.0240.c6b9.c58f.a713.bd3a"},
    {"com.offer.manager196", "f9782c81e8f084a3", "b487.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.grid.route197", "3845a4b0dfbb6c41", "1908.7ddc.9c38.a2de.dcae.0240.c6b9.3d27.3a5f.bd3a"},
    {"com.response.health198", "48c2fbc2103c234f", "996a.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.invite.worker199", "e01214f3eff2e65a", "acba.7ddc.9c38.e7ff.d91c.0240.c6b9.0a8a.a935.bd3a"},
    {"com.custom.extra200", "8e688685f4c0a1cf", "9a32.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.toast.clear201", "73efad854b2af4c0", "88d1.7ddc.9c38.f2e6.8590.0240.c6b9.3495.e351.bd3a"},
    {"com.cookie.holder202", "de989f91b130931c", "d694.7ddc.9c38.a2de.d91c.0240.c6b9.747d.18e7.e3ce"},
    {"com.member.send203", "e9670bf2941d5985", "337f.7ddc.9c38.a2de.d91c.0240.c6b9.897b.4d5f.bd3a"},
    {"com.client.clean204", "86ba3ebd5eba8f25", "56ee.7ddc.9c38.f2e6.84bd.0240.c6b9.337d.0044.bd3a"},
    {"com.add.info205", "493224e248022bb0", "a80d.7ddc.9c38.f2e6.6c4d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.check.custom206", "4335ed4b1e656083", "8861.9329.9c38.f2e6.84bd.0240.c6b9.207a.c3ae.bd3a"},
    {"com.metric.process207", "890005193cc7808f", "6903.7ddc.9c38.f2e6.6c4d.0240.c6b9.63cb.ed16.bd3a"},
    {"com.insert.work208", "f6e008e3fc320ed6", "905e.7ddc.9c38.f2e6.6c4d.0240.c6b9.0705.6266.bd3a"},
    {"com.retry.catalog209", "24f1a7d60bfc74d7", "7b9f.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.common.rotate210", "4eeeeb4a344978af", "e3eb.7ddc.9c38.f2e6.84bd.e890.e9d2.c6b9.09fd.7fd3.bd3a"},
    {"com.rate.expand211", "852ba7a5fd7f1fb8", "3f33.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.preview.custom212", "f4ab986998ad2406", "f94e.9329.9c38.f2e6.6c4d.0240.c6b9.dcec.0ce4.bd3a"},
    {"com.audio.mark213", "b99b1aa3d77e6fa6", "01b2.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.block.command214", "66f2880adeff48c5", "bf66.7ddc.9c38.a2de.d91c.0240.c6b9.2d23.49ff.bd3a"},
    {"com.database.trigger215", "91475be939ac6e9c", "cd8d.7ddc.9c38.f2e6.84bd.0240.c6b9.7968.b1d2.bd3a"},
    {"com.scheme.loop216", "28b25cd8d1f911b4", "8802.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.score.drawer217", "5dbd5030edd32e35", "4c25.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.head.event218", "380a7bc83947d3c1", "5b34.7ddc.9c38.f2e6.6c4d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.voice.battery219", "6c8128e9e17ae422", "af26.7ddc.9c38.e7ff.dcae.0240.c6b9.a12d.c846.bd3a"},
    {"com.scheme.date220", "3ffbbdcf83a5380d", "35df.7ddc.9c38.a2de.dcae.0240.c6b9.1a6d.77a9.bd3a"},
    {"com.channel.instance221", "68409f0df58e161f", "9262.9329.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.week.view222", "5ee45438d9c5e37a", "acdb.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.month.login223", "6b8cf5901c486551", "fbc9.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.toolbar.write224", "25f28bdeb372acc9", "1382.9329.9c38.f2e6.6c4d.0240.c6b9.a994.9adf.bd3a"},
    {"com.record.session225", "0a95f91d70c8d7d9", "be97.7ddc.9c38.a2de.d91c.0240.c6b9.993b.8278.bd3a"},
    {"com.clear.second226", "c6ff44f0efd82d44", "2e5d.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.product.zone227", "a77a8b41b05b2d50", "8e1b.7ddc.9c38.f2e6.84bd.0240.c6b9.4536.94ae.bd3a"},
    {"com.goal.point228", "5be0ef240d8fc06f", "862d.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.range.source229", "16a212dcfb9ed466", "6d2e.7ddc.9c38.a2de.dcae.0240.c6b9.c2f7.746c.bd3a"},
    {"com.notify.user230", "d8b6acd5bba98bf6", "8732.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.search.alarm231", "7e2d9aebd54bac32", "33c0.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.keyboard.pager232", "7df82ede7526fa6b", "bf41.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.friend.sender233", "18767ccf87e43b43", "4931.9329.9c38.e7ff.350d.0240.c6b9.f55f.8023.bd3a"},
    {"com.background.bookmark234", "72f2213bcba77492", "91ca.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.undo.update235", "9b35ab724e6c2450", "600d.7ddc.9c38.f2e6.84bd.0240.c6b9.53a3.dc55.bd3a"},
    {"com.apply.translate236", "8b212cb3c85d01ba", "ebc9.9329.9c38.12e6.eec8.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.hide.ticket237", "544789680b1d6204", "1bb2.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.drag.strip238", "4d8de8335b4790c4", "5f16.7ddc.9c38.f2e6.84bd.0240.c6b9.ba6b.13ae.bd3a"},
    {"com.code.filter239", "f9945ad7499cf503", "b47e.9329.9c38.f2e6.6c4d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.dir.toast240", "8f643010b92ba053", "95d4.7ddc.9c38.a2de.dcae.0240.c6b9.4cc1.ded6.bd3a"},
    {"com.album.data241", "24526fa787097b3e", "5a58.9329.9c38.f2e6.6c4d.0240.c6b9.fb56.d62f.bd3a"},
    {"com.hour.scroll242", "4dfa8a23f40b014f", "3ed9.9329.9c38.f2e6.6c4d.0240.c6b9.19e3.1698.bd3a"},
    {"com.server.folder243", "ed7e75aabf815627", "7415.9329.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.load.stage244", "25363cfe4e298ec7", "cd4e.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.drop.select245", "66f5b1e6e11923fa", "13e7.7ddc.9c38.e7ff.dcae.0240.c6b9.8187.8792.bd3a"},
    {"com.text.model246", "9d7e0137bd7b6ef3", "bc16.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.host.dash247", "b1f3784f33348572", "3011.7ddc.9c38.a2de.350d.0240.c6b9.21c0.1302.bd3a"},
    {"com.name.router248", "ba3ed037c8babf99", "6380.9329.9c38.f2e6.6c4d.0240.c6b9.cbdb.d489.bd3a"},
    {"com.drive.compute249", "f5abfef63aa584e6", "c586.7ddc.9c38.a2de.dcae.0240.c6b9.a493.1cd8.bd3a"},
    {"com.icon.parser250", "8027e1e3c8e7c17f", "4a28.7ddc.9c38.f2e6.6c4d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.video.screen251", "03a9e77b4948bef6", "1591.9329.9c38.f2e6.84bd.0240.c6b9.17d8.5df9.bd3a"},
    {"com.clock.finish252", "6c97500dade9574e", "85d9.7ddc.9c38.f2e6.6c4d.0240.c6b9.e413.63fe.bd3a"},
    {"com.decode.memory253", "31e2f776b572d240", "12f5.7ddc.9c38.a2de.dcae.0240.c6b9.9cf8.162d.bd3a"},
    {"com.resize.archive254", "31e5dc8e5f1db30f", "f846.7ddc.9c38.f2e6.6c4d.0240.c6b9.bcaa.f1a3.bd3a"},
    {"com.call.response255", "d1acd5da39f671ae", "83d2.9329.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.history.table256", "13a2676d7eb70d4d", "7fd7.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.restart.decode257", "ab2bff6a19033917", "374c.7ddc.9c38.12e6.84bd.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.rank.free258", "5e5f7c49186eaafe", "6518.7ddc.9c38.f2e6.84bd.0240.c6b9.b2f4.e66d.bd3a"},
    {"com.convert.debug259", "a8b96e1d80119efd", "3e44.9329.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.context.food260", "3b188898e0d5870b", "ff1c.7ddc.9c38.f2e6.6c4d.0240.c6b9.ea38.da09.bd3a"},
    {"com.dir.picture261", "9a7e55d9619e9c6b", "a086.7ddc.9c38.f2e6.6c4d.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.sync.category262", "9cb9d3a834efa26e", "4497.9329.9c38.f2e6.8590.0240.c6b9.0789.8b03.bd3a"},
    {"com.tracker.bookmark263", "d49ec0c1d73a1e9a", "a9a7.7ddc.9c38.f2e6.84bd.0240.c6b9.6c33.d5d2.bd3a"},
    {"com.settings.video264", "6e02b3110a820fb5", "2db0.9329.9c38.f2e6.6c4d.0240.c6b9.5cc5.1070.bd3a"},
    {"com.cloud.widget265", "23ec8b84fc36ed8f", "a98a.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.index.convert266", "c95970822dc59d0f", "3ba0.7ddc.9c38.f2e6.6c4d.0240.c6b9.aa65.5cb7.bd3a"},
    {"com.drawer.select267", "5fed3c3586a87ac5", "c4c2.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.random.user268", "45b6fe081e9b27ec", "1af3.7ddc.9c38.a2de.dcae.0240.c6b9.30a4.a93a.bd3a"},
    {"com.member.rule269", "63c668ca1a1ab38b", "280b.7ddc.9c38.f2e6.84bd.0240.c6b9.0204.196b.bd3a"},
    {"com.type.validate270", "c65043c08e1cc9e1", "cdb1.9329.9c38.f2e6.6c4d.0240.c6b9.3c0a.0c9b.bd3a"},
    {"com.time.mark271", "bc4cc83009cf5dfd", "c2ed.7ddc.9c38.a2de.dcae.0240.c6b9.2505.8afe.bd3a"},
    {"com.reset.convert272", "4d59fd34d5f1632b", "95b2.7ddc.9c38.f2e6.8590.0240.c6b9.5492.bb5c.bd3a"},
    {"com.builder.dialog273", "518a9ad5d4edbf35", "7733.7ddc.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.goal.version274", "2f619ea2936b85f5", "5823.9329.9c38.a2de.350d.0240.c6b9.146b.2e80.bd3a"},
    {"com.receiver.word275", "f6b6bd668b480898", "de08.7ddc.9c38.f2e6.eec8.0240.c6b9.7abc.dfe3.bd3a"},
    {"com.suggest.show276", "e8e722e1182cb345", "1bcd.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.week.story277", "3d536b2e06233530", "9402.7ddc.9c38.f2e6.84bd.0240.c6b9.0a1b.eedc.bd3a"},
    {"com.user.shadow278", "446f88b067be1ac8", "17b5.9329.9c38.f2e6.84bd.0240.c6b9.2bab.8b65.bd3a"},
    {"com.weather.compat279", "71e7613a1577c193", "ecf2.7ddc.9c38.f2e6.84bd.0240.c6b9.7881.30ee.bd3a"},
    {"com.unpack.refresh280", "1c41dad32c176e96", "4224.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.toolbar.join281", "e52f8e68b9d674cc", "ddc8.7ddc.9c38.f2e6.84bd.0240.c6b9.622f.1ec0.bd3a"},
    {"com.status.viewer282", "4cf51aec8275a029", "0e37.7ddc.9c38.a2de.035f.0240.c6b9.b095.e608.bd3a"},
    {"com.field.ready283", "47144318e2b4a546", "1468.9329.9c38.a2de.d575.0240.c6b9.dee1.6724.bd3a"},
    {"com.review.memory284", "15acc5113f7e5606", "1e79.7ddc.9c38.f2e6.84bd.0240.c6b9.c015.3792.bd3a"},
    {"com.size.proxy285", "7049a6ee8ea456db", "5f65.7ddc.9c38.e7ff.dcae.0240.c6b9.3556.259d.bd3a"},
    {"com.month.thumb286", "6665cc9c9c2da656", "64cc.7ddc.9c38.a2de.dcae.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.folder.encode287", "60960ab6cf9cd72b", "b6be.9329.9c38.a2de.d91c.0240.c6b9.7e57.73a3.bd3a"},
    {"com.level.health288", "ad6f087b934014a3", "02e0.7ddc.9c38.a2de.d91c.0240.c6b9.09fd.7fd3.bd3a"},
    {"com.search.commit289", "efebf92980773215", "5924.7ddc.9c38.f2e6.6c4d.0240.c6b9.fbfe.a168.bd3a"},
    {"com.rule.mute290", "716289bd71e09556", "9a60.9329.9c38.a2de.d91c.0ea2.c6b9.09fd.7fd3.bd3a"},
    {"com.intent.instance291", "bd785f844ee5c4fb", "ea73.9329.9c38.12e6.6c4d.1156.c6b9.09fd.7fd3.bd3a"},
    {"com.driver.sleep292", "5b08644c267efe62", "6b9d.7ddc.9c38.a2de.dcae.0240.c6b9.1bb2.f47d.bd3a"},
    {"com.query.activity293", "8970d2834fdbb84f", "bf04.7ddc.9c38.f2e6.6c4d.0240.c6b9.b10d.320d.bd3a"},
};

TEST(ReportGolden, SmallCorpusMatchesCommittedDigest) {
  support::set_log_level(support::LogLevel::Error);
  // `dydroid survey --scale 0.005 --seed 20161101`: the CLI's detector
  // (4 samples per family, seed 0xD401DA) and seed base 1.
  appgen::CorpusConfig corpus_config;
  corpus_config.scale = 0.005;
  corpus_config.seed = 20161101;
  const auto corpus = appgen::generate_corpus(corpus_config);
  const auto detector = malware::train_detector(4, 0xD401DA);
  core::PipelineOptions options;
  options.detector = &detector;
  const core::DyDroid pipeline(std::move(options));
  driver::RunnerConfig runner_config;
  runner_config.seed_base = 1;
  const auto result = driver::CorpusRunner(pipeline, runner_config).run(corpus);
  ASSERT_EQ(result.outcomes.size(), corpus.apps.size());

  support::Sha256 sha;
  std::vector<std::string> jsons;
  for (const auto& outcome : result.outcomes) {
    jsons.push_back(core::report_to_json(outcome.report));
    sha.update(jsons.back());
  }
  const auto digest = sha.digest().hex();
  if (std::getenv("DYDROID_PRINT_GOLDEN") != nullptr) {
    std::printf("constexpr std::string_view kGoldenDigest =\n    \"%s\";\n",
                digest.c_str());
    for (std::size_t i = 0; i < jsons.size(); ++i) {
      std::printf("    {\"%s\", \"%s\", \"%s\"},\n",
                  result.outcomes[i].report.package.c_str(),
                  support::sha256(jsons[i]).hex().substr(0, 16).c_str(),
                  field_digests(top_level_fields(jsons[i])).c_str());
    }
  }

  ASSERT_EQ(std::size(kGoldenRows), jsons.size());
  for (std::size_t i = 0; i < jsons.size(); ++i) {
    const auto& want = kGoldenRows[i];
    if (support::sha256(jsons[i]).hex().substr(0, 16) == want.report) continue;
    // Name the first top-level field whose digest moved.
    const auto fields = top_level_fields(jsons[i]);
    const std::string have = field_digests(fields);
    std::string field = "<a trailing field was dropped>";
    for (std::size_t k = 0; k < fields.size(); ++k) {
      const std::size_t at = 5 * k;
      const auto committed = at < want.fields.size()
                                 ? want.fields.substr(at, 4)
                                 : std::string_view();
      if (std::string_view(have).substr(at, 4) != committed) {
        field = fields[k].name;
        break;
      }
    }
    ADD_FAILURE() << "first difference: app " << i << " ("
                  << result.outcomes[i].report.package << ", committed "
                  << want.package << "), field " << field;
    break;
  }
  EXPECT_EQ(digest, kGoldenDigest);
}

}  // namespace
}  // namespace dydroid
