// Checks of the benchmark's own checks.
//
//  * RFC 4493 AES-CMAC known answers through the backend in use.
//  * The oracle's LPM on a hand-built table with known answers: nested
//    prefixes, a MOAS entry, a default route and IPv6.
//  * The oracle's model against the program on that table: every journey
//    of a small world with DP, CDP, SP and CSP invoked agrees, and the
//    oracle's mark layout equals the mark the program stamps.
//  * Each check the workloads apply fails on a corrupted verdict, a wrong
//    expected outcome or a wrong expected count.
#include <cstdio>

#include "crypto/aes_backend.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

discs::Prefix4 p4(const char* text) { return *discs::Prefix4::parse(text); }
discs::Prefix6 p6(const char* text) { return *discs::Prefix6::parse(text); }
discs::Ipv4Address a4(const char* text) { return *discs::Ipv4Address::parse(text); }
discs::Ipv6Address a6(const char* text) { return *discs::Ipv6Address::parse(text); }

std::vector<std::uint8_t> hex(const char* text) {
  std::vector<std::uint8_t> out;
  for (const char* c = text; c[0] != 0 && c[1] != 0; c += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(std::string(c, 2), nullptr, 16)));
  }
  return out;
}

}  // namespace

bool check_cmac_known_answers(Report& report) {
  // RFC 4493 §4, examples 1-4 (key 2b7e1516 28aed2a6 abf71588 09cf4f3c).
  const auto key_bytes = hex("2b7e151628aed2a6abf7158809cf4f3c");
  discs::Key128 key{};
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const std::string message =
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";
  const struct {
    std::size_t len;
    const char* tag;
  } vectors[] = {{0, "bb1d6929e95937287fa37d129b756746"},
                 {16, "070a16b46b4d4144f79bdd9dd04a287c"},
                 {40, "dfa66747de9ae63030ca32611497c827"},
                 {64, "51f0bebf7e3b9d92fc49741779363cfe"}};
  const discs::AesCmac cmac(key);
  const auto msg = hex(message.c_str());
  bool ok = true;
  for (const auto& v : vectors) {
    const discs::Block128 tag = cmac.mac(std::span(msg.data(), v.len));
    ok = ok && std::vector<std::uint8_t>(tag.begin(), tag.end()) == hex(v.tag);
  }
  report.check(ok, std::string("RFC 4493 AES-CMAC known answers fail on backend ") +
                       discs::to_string(discs::aes_backend()));
  report.note(std::string("aes backend: ") + discs::to_string(discs::aes_backend()) +
              (ok ? " (RFC 4493 known answers pass)" : " (RFC 4493 known answers FAIL)"));
  return ok;
}

bool run_selftest(Report& report, bool verbose) {
  bool ok = true;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      ok = false;
      report.check(false, std::string("self-test: ") + what);
    }
  };

  // A hand-built table: nested /8 > /16 > /24, a MOAS /8, a default route,
  // and IPv6 /32 > /48.
  std::vector<discs::PrefixOrigin> v4 = {
      {p4("10.0.0.0/8"), {1}},    {p4("10.1.0.0/16"), {2}}, {p4("10.1.2.0/24"), {3}},
      {p4("20.0.0.0/8"), {4, 5}}, {p4("0.0.0.0/0"), {6}},   {p4("30.0.0.0/8"), {7}},
  };
  std::vector<discs::PrefixOrigin6> v6 = {
      {p6("2400:1::/32"), {1}}, {p6("2400:1:2::/48"), {2}}, {p6("2400:3::/32"), {3}},
  };
  discs::InternetDataset dataset(v4, v6);
  Oracle oracle(dataset);
  expect(oracle.origin(a4("10.9.9.9")) == 1, "LPM /8");
  expect(oracle.origin(a4("10.1.9.9")) == 2, "LPM nested /16");
  expect(oracle.origin(a4("10.1.2.3")) == 3, "LPM nested /24");
  expect(oracle.origin(a4("20.1.1.1")) == 4, "LPM MOAS first origin");
  expect(oracle.origin(a4("99.0.0.1")) == 6, "LPM default route");
  expect(oracle.origin(a6("2400:1::5")) == 1, "LPM IPv6 /32");
  expect(oracle.origin(a6("2400:1:2::9")) == 2, "LPM IPv6 nested /48");
  expect(oracle.origin(a6("3000::1")) == kNoAs, "LPM IPv6 unrouted");
  expect(oracle.prefixes_of(5).size() == 1 && oracle.primary_prefixes_of(5).empty(),
         "MOAS co-owner lists the prefix but is not its primary origin");
  PrefixMap4 fns;
  fns.merge(p4("10.0.0.0/8"), kFnDp);
  fns.merge(p4("10.1.0.0/16"), kFnSp);
  expect(fns.covering_or(a4("10.1.2.3")) == (kFnDp | kFnSp) &&
             fns.covering_or(a4("10.9.0.1")) == kFnDp && fns.covering_or(a4("11.0.0.1")) == 0,
         "all-prefix function match");

  // A world over the same table: DASes 1, 2, 3; AS 2 invokes DP+CDP, AS 3
  // SP+CSP; AS 6 is a legacy agent. Every journey must agree with the oracle.
  discs::DiscsSystem::Config cfg;
  cfg.controller.engine.shards = 1;
  cfg.channel_latency = kChannelLatency;
  discs::DiscsSystem system(std::move(dataset), cfg);
  std::vector<discs::Controller*> controllers;
  for (const AsNumber as : {1u, 2u, 3u}) {
    controllers.push_back(&system.deploy(as));
    oracle.add_das(as);
  }
  system.settle();
  expect(full_mesh(controllers), "hand-built DASes peer");
  system.controller(2)->invoke_ddos_defense_all(false);
  system.controller(3)->invoke_ddos_defense_all(true);
  oracle.invoke_all(2, false);
  oracle.invoke_all(3, true);
  system.settle();
  oracle.set_keys(world_keys([&](AsNumber as) { return system.controller(as); }));

  Rng rng(7);
  struct Journey {
    AsNumber origin;
    BatchPacket packet;
    DeliveryOutcome known;  // hand-derived from §IV-E
  };
  const std::vector<Journey> journeys = {
      {1, make_v4(a4("10.9.0.1"), a4("10.1.5.5"), rng), DeliveryOutcome::kDelivered},
      {1, make_v4(a4("99.0.0.1"), a4("10.1.5.5"), rng), DeliveryOutcome::kDroppedAtSource},
      {6, make_v4(a4("10.9.0.1"), a4("10.1.5.5"), rng), DeliveryOutcome::kDroppedAtDestination},
      {6, make_v4(a4("10.1.2.9"), a4("10.9.0.5"), rng), DeliveryOutcome::kDroppedAtDestination},
      {3, make_v4(a4("10.1.2.9"), a4("10.9.0.5"), rng), DeliveryOutcome::kDelivered},
      {1, make_v4(a4("10.1.2.9"), a4("99.0.0.9"), rng), DeliveryOutcome::kDroppedAtSource},
      {1, make_v4(a4("10.9.0.1"), a4("20.1.1.1"), rng), DeliveryOutcome::kDelivered},
      {1, make_v4(a4("10.9.0.1"), a4("10.1.2.7"), rng), DeliveryOutcome::kDelivered},
      {6, make_v4(a4("99.0.0.1"), a4("10.9.0.5"), rng), DeliveryOutcome::kDelivered},
      {1, make_v6(a6("2400:1::5"), a6("2400:1:2::9"), rng), DeliveryOutcome::kDelivered},
      {6, make_v6(a6("2400:1::5"), a6("2400:1:2::9"), rng),
       DeliveryOutcome::kDroppedAtDestination},
      {1, make_v6(a6("2400:1::5"), a6("3000::1"), rng), DeliveryOutcome::kUnroutable},
  };
  std::size_t agree = 0;
  for (const Journey& j : journeys) {
    const Oracle::Expected e = oracle.send(j.origin, j.packet);
    BatchPacket copy = j.packet;
    const discs::DeliveryResult r =
        std::visit([&](auto& p) { return system.send_packet(j.origin, p); }, copy);
    const AsNumber dst = oracle.origin_of_packet_dst(j.packet);
    agree += (e.outcome == j.known && outcome_matches(r, e, j.origin, dst)) ? 1 : 0;
    // A corrupted verdict or a wrong expected outcome must be caught.
    discs::DeliveryResult bad = r;
    bad.destination_verdict = bad.destination_verdict == Verdict::kPass
                                  ? Verdict::kDropSpoofed
                                  : Verdict::kPass;
    Oracle::Expected wrong = e;
    wrong.outcome = e.outcome == DeliveryOutcome::kDelivered
                        ? DeliveryOutcome::kDroppedAtDestination
                        : DeliveryOutcome::kDelivered;
    expect(!outcome_matches(bad, e, j.origin, dst), "a corrupted verdict went unnoticed");
    expect(!outcome_matches(r, wrong, j.origin, dst),
           "a wrong expected outcome went unnoticed");
  }
  expect(agree == journeys.size(), "oracle and program disagree on a hand-built journey");

  // The oracle's mark layout equals the mark the program stamps.
  discs::Ipv4Packet stamped = make_v4(a4("10.9.0.1"), a4("10.1.5.5"), rng);
  system.controller(1)->router().process_outbound(stamped, system.now());
  const auto* key = system.controller(1)->tables().key_s.find(2);
  expect(key != nullptr &&
             own_mark4(key->active_mac, stamped) ==
                 ((std::uint32_t{stamped.header.identification} << 13) |
                  stamped.header.fragment_offset),
         "the oracle's IPv4 mark differs from the stamped mark");

  // A wrong expected count must be caught.
  discs::RouterStats before, after;
  after.out_processed = 10;
  after.out_stamped = 6;
  after.out_dropped = 4;
  StageCounts expected{.stamped = 6, .dp_dropped = 4, .out_passed = 6};
  expect(stage_counts(before, after, before, before) == expected, "stage counts");
  expected.dp_dropped += 1;
  expect(!(stage_counts(before, after, before, before) == expected),
         "a wrong expected count went unnoticed");

  if (verbose) {
    std::fprintf(stderr, "self-test: %zu/%zu hand-built journeys agree; %s\n", agree,
                 journeys.size(), ok ? "every check passes and fails as it must" : "FAILED");
  }
  return ok;
}

}  // namespace perfbench
