// End-to-end border-router tests: two routers (a peer DAS and the victim
// DAS) exchanging packets through the §V-C processing flow.
#include "dataplane/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <variant>
#include <vector>

namespace discs {
namespace {

constexpr AsNumber kPeerAs = 100;    // cooperating peer
constexpr AsNumber kVictimAs = 200;  // DAS under attack

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }
Ipv4Address ip(const char* t) { return *Ipv4Address::parse(t); }
Ipv6Address ip6(const char* t) { return *Ipv6Address::parse(t); }

// Shared address plan: peer = 10/8 (+2001:db8:a::/48),
// victim = 20/8 (+2001:db8:b::/48), stranger = 40/8.
void fill_pfx2as(Pfx2AsTable& t) {
  t.add(pfx("10.0.0.0/8"), kPeerAs);
  t.add(pfx("20.0.0.0/8"), kVictimAs);
  t.add(pfx("40.0.0.0/8"), 400);
  t.add(*Prefix6::parse("2001:db8:a::/48"), kPeerAs);
  t.add(*Prefix6::parse("2001:db8:b::/48"), kVictimAs);
}

class RouterPairTest : public ::testing::Test {
 protected:
  RouterPairTest()
      : peer_router_(peer_tables_, kPeerAs, 1),
        victim_router_(victim_tables_, kVictimAs, 2) {
    fill_pfx2as(peer_tables_.pfx2as);
    fill_pfx2as(victim_tables_.pfx2as);
    // Symmetric keys: key_{peer,victim} for peer->victim traffic and
    // key_{victim,peer} for the reverse (paper §IV-D naming).
    const Key128 k_pv = derive_key128(11);
    const Key128 k_vp = derive_key128(22);
    peer_tables_.key_s.set_key(kVictimAs, k_pv);
    victim_tables_.key_v.set_key(kPeerAs, k_pv);
    victim_tables_.key_s.set_key(kPeerAs, k_vp);
    peer_tables_.key_v.set_key(kVictimAs, k_vp);
  }

  /// Victim invokes DP+CDP for subnet 20.1/16 (d-DDoS defense): the peer
  /// filters + stamps outbound, the victim verifies inbound.
  void invoke_dp_cdp(SimTime start, SimTime end) {
    peer_tables_.out_dst.install(pfx("20.1.0.0/16"), DefenseFunction::kDp,
                                 start, end);
    peer_tables_.out_dst.install(pfx("20.1.0.0/16"), DefenseFunction::kCdpStamp,
                                 start, end);
    victim_tables_.in_dst.install(pfx("20.1.0.0/16"),
                                  DefenseFunction::kCdpVerify, start, end);
  }

  RouterTables peer_tables_;
  RouterTables victim_tables_;
  BorderRouter peer_router_;
  BorderRouter victim_router_;
  const SimTime now_ = 10 * kSecond;
};

TEST_F(RouterPairTest, GenuineTrafficPassesEndToEnd) {
  invoke_dp_cdp(0, kHour);
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                            {1, 2, 3});
  EXPECT_EQ(peer_router_.process_outbound(p, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().out_stamped, 1u);
  EXPECT_EQ(victim_router_.process_inbound(p, now_ + kMillisecond),
            Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_verified, 1u);
  EXPECT_TRUE(p.checksum_valid());
}

TEST_F(RouterPairTest, SpoofedPacketDroppedAtPeerEgress) {
  invoke_dp_cdp(0, kHour);
  // Agent inside the peer AS spoofing a stranger's source.
  auto p = Ipv4Packet::make(ip("40.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(peer_router_.process_outbound(p, now_), Verdict::kDropFiltered);
  EXPECT_EQ(peer_router_.stats().out_dropped, 1u);
}

TEST_F(RouterPairTest, UnstampedDirectSpoofDroppedAtVictim) {
  invoke_dp_cdp(0, kHour);
  // Attack traffic from a legacy AS spoofing the peer's addresses reaches
  // the victim without a mark; CDP-verify (src in peer) rejects it.
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kDropSpoofed);
  EXPECT_EQ(victim_router_.stats().in_spoof_dropped, 1u);
}

TEST_F(RouterPairTest, NonPeerSourcesPassUnverified) {
  invoke_dp_cdp(0, kHour);
  // Victim cannot judge traffic whose source is not a collaborator.
  auto p = Ipv4Packet::make(ip("40.0.0.7"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_passed_unverified, 1u);
}

TEST_F(RouterPairTest, TrafficOutsideVictimSubnetUntouched) {
  invoke_dp_cdp(0, kHour);
  auto p = Ipv4Packet::make(ip("40.0.0.1"), ip("20.2.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(peer_router_.process_outbound(p, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().out_stamped, 0u);
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
}

TEST_F(RouterPairTest, InvocationExpiryStopsProcessing) {
  invoke_dp_cdp(0, now_ - kSecond);
  auto p = Ipv4Packet::make(ip("40.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(peer_router_.process_outbound(p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
}

TEST_F(RouterPairTest, ToleranceIntervalErasesWithoutJudging) {
  // Verification started 1 s ago with the default 2 s tolerance: stale
  // marks (e.g. stamped under no key at all) are erased, not dropped.
  invoke_dp_cdp(now_ - kSecond, kHour);
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_erased_tolerance, 1u);
}

TEST_F(RouterPairTest, AlarmModeSamplesInsteadOfDropping) {
  invoke_dp_cdp(0, kHour);
  victim_router_.set_alarm_mode(true);
  std::vector<AlarmSample> samples;
  victim_router_.set_alarm_sink(
      [&](const AlarmSample& s) { samples.push_back(s); });

  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_spoof_sampled, 1u);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].source_as, kPeerAs);

  // Quitting alarm mode returns to dropping.
  victim_router_.set_alarm_mode(false);
  auto q = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(victim_router_.process_inbound(q, now_), Verdict::kDropSpoofed);
}

TEST_F(RouterPairTest, RekeyGraceWindowAcceptsOldKey) {
  invoke_dp_cdp(0, kHour);
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(peer_router_.process_outbound(p, now_), Verdict::kPass);

  // Victim installs the new verification key while the packet is in flight;
  // the old key is retained as grace key.
  victim_tables_.key_v.set_key(kPeerAs, derive_key128(99));
  EXPECT_EQ(victim_router_.process_inbound(p, now_ + kMillisecond),
            Verdict::kPass);

  // After finish_rekey the old key stops being accepted.
  auto q = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(peer_router_.process_outbound(q, now_), Verdict::kPass);
  victim_tables_.key_v.finish_rekey(kPeerAs);
  EXPECT_EQ(victim_router_.process_inbound(q, now_ + kMillisecond),
            Verdict::kDropSpoofed);
}

TEST_F(RouterPairTest, Ipv6EndToEndStampAndVerify) {
  peer_tables_.out_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                               DefenseFunction::kCdpStamp, 0, kHour);
  victim_tables_.in_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                                DefenseFunction::kCdpVerify, 0, kHour);
  auto p = Ipv6Packet::make(ip6("2001:db8:a::1"), ip6("2001:db8:b::9"), 17,
                            {1, 2, 3, 4});
  const auto original = p;
  EXPECT_EQ(peer_router_.process_outbound(p, now_), Verdict::kPass);
  EXPECT_TRUE(p.dest_opts.has_value());
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
  EXPECT_EQ(p, original);  // mark fully removed
}

TEST_F(RouterPairTest, Ipv6SpoofWithoutMarkDropped) {
  victim_tables_.in_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                                DefenseFunction::kCdpVerify, 0, kHour);
  auto p = Ipv6Packet::make(ip6("2001:db8:a::1"), ip6("2001:db8:b::9"), 17, {});
  EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kDropSpoofed);
}

TEST_F(RouterPairTest, Ipv6MtuOverflowEmitsPacketTooBig) {
  peer_tables_.out_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                               DefenseFunction::kCdpStamp, 0, kHour);
  BorderRouter small_mtu_router(peer_tables_, kPeerAs, 3, /*mtu=*/128);
  std::vector<Ipv6Packet> icmp;
  small_mtu_router.set_icmp6_sink([&](Ipv6Packet m) { icmp.push_back(std::move(m)); });

  auto p = Ipv6Packet::make(ip6("2001:db8:a::1"), ip6("2001:db8:b::9"), 17,
                            std::vector<std::uint8_t>(85, 0));  // 40+85=125, +8 > 128
  EXPECT_EQ(small_mtu_router.process_outbound(p, now_), Verdict::kDropTooBig);
  ASSERT_EQ(icmp.size(), 1u);
  EXPECT_EQ(icmp[0].payload[0], kIcmpV6PacketTooBig);
  // Advertised MTU is 8 below the link MTU.
  const std::uint32_t mtu = (std::uint32_t{icmp[0].payload[4]} << 24) |
                            (std::uint32_t{icmp[0].payload[5]} << 16) |
                            (std::uint32_t{icmp[0].payload[6]} << 8) |
                            icmp[0].payload[7];
  EXPECT_EQ(mtu, 120u);
}

TEST_F(RouterPairTest, InboundTimeExceededScrubbed) {
  invoke_dp_cdp(0, kHour);
  // An attacker's probe: stamped packet whose TTL expired just outside the
  // peer AS; the returned Time Exceeded quotes the stamped header.
  auto probe = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(peer_router_.process_outbound(probe, now_), Verdict::kPass);
  const std::uint32_t stamped_mark = ipv4_read_mark(probe);

  auto te = build_time_exceeded_v4(probe, ip("40.0.0.254"));
  EXPECT_EQ(peer_router_.process_inbound(te, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().icmp_scrubbed, 1u);
  // The quoted mark is gone.
  const auto quoted = Ipv4Header::parse(
      std::span<const std::uint8_t>(te.payload.data() + 8, 20));
  ASSERT_TRUE(quoted.has_value());
  const std::uint32_t leaked =
      (std::uint32_t{quoted->identification} << 13) | quoted->fragment_offset;
  EXPECT_NE(leaked, stamped_mark);
  EXPECT_EQ(leaked, 0u);
}

TEST_F(RouterPairTest, ReplayOfCapturedMarkFailsForDifferentPacket) {
  invoke_dp_cdp(0, kHour);
  auto original = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"),
                                   IpProto::kUdp, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(peer_router_.process_outbound(original, now_), Verdict::kPass);
  const std::uint32_t captured = ipv4_read_mark(original);

  // Attacker reuses the captured mark on a packet with different payload:
  // the MAC is bound to msg, so verification fails (paper §VI-E2).
  auto forged = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                 {9, 9, 9, 9, 9, 9, 9, 9});
  forged.header.identification = static_cast<std::uint16_t>(captured >> 13);
  forged.header.fragment_offset = static_cast<std::uint16_t>(captured & 0x1fff);
  forged.header.refresh_checksum();
  EXPECT_EQ(victim_router_.process_inbound(forged, now_), Verdict::kDropSpoofed);

  // An exact replay (identical msg) does verify — detection of identical
  // duplicates is the destination host's job per the paper.
  EXPECT_EQ(victim_router_.process_inbound(original, now_), Verdict::kPass);
}

TEST_F(RouterPairTest, FragmentCollateralCounted) {
  invoke_dp_cdp(0, kHour);
  // A genuine fragmented packet (MF set) toward the protected prefix: the
  // stamp overwrites its reassembly fields; the router records the damage.
  auto frag1 = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                std::vector<std::uint8_t>(16, 1));
  frag1.header.flags = 0b001;  // more fragments
  frag1.header.identification = 0x4242;
  frag1.header.refresh_checksum();
  auto frag2 = frag1;
  frag2.header.flags = 0;
  frag2.header.fragment_offset = 2;  // continuation fragment
  frag2.header.refresh_checksum();
  auto whole = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                {1, 2});

  EXPECT_EQ(peer_router_.process_outbound(frag1, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.process_outbound(frag2, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.process_outbound(whole, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().fragments_stamped, 2u);
  EXPECT_EQ(peer_router_.stats().out_stamped, 3u);
  // The two fragments can no longer share an IPID: reassembly broken.
  EXPECT_NE(frag1.header.identification, 0x4242);
}

TEST_F(RouterPairTest, AlarmSamplingRateThinsReports) {
  invoke_dp_cdp(0, kHour);
  victim_router_.set_alarm_mode(true);
  victim_router_.set_sampling_rate(8);  // 1-in-8 sFlow style
  std::size_t samples = 0;
  victim_router_.set_alarm_sink([&](const AlarmSample&) { ++samples; });
  for (int k = 0; k < 800; ++k) {
    auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                              {std::uint8_t(k), std::uint8_t(k >> 8)});
    EXPECT_EQ(victim_router_.process_inbound(p, now_), Verdict::kPass);
  }
  EXPECT_EQ(victim_router_.stats().in_spoof_sampled, 800u);
  // Expect ~100 reports; allow generous Monte-Carlo slack.
  EXPECT_GT(samples, 50u);
  EXPECT_LT(samples, 180u);
}

TEST_F(RouterPairTest, StatsCountersaccount) {
  invoke_dp_cdp(0, kHour);
  auto good = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  auto bad = Ipv4Packet::make(ip("40.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  peer_router_.process_outbound(good, now_);
  peer_router_.process_outbound(bad, now_);
  EXPECT_EQ(peer_router_.stats().out_processed, 2u);
  EXPECT_EQ(peer_router_.stats().out_stamped, 1u);
  EXPECT_EQ(peer_router_.stats().out_dropped, 1u);
}

// ---- One walk, two entry kinds -------------------------------------------
//
// The per-packet entry points and the batch entry points run the same
// phase-A / flush / phase-B walk over shared scratch vectors. Interleaving
// the two on one router must be indistinguishable from per-packet calls
// only: same verdicts, packet bytes (marks and RNG erasure), RouterStats,
// ICMPv6 output, alarm samples and flow reports. Any state carried from one
// call's scratch into the next would break this.

/// Everything a router under test emits through its sinks.
struct SinkLog {
  std::vector<std::vector<std::uint8_t>> icmp6;
  std::vector<AlarmSample> alarms;
  std::vector<FlowReport> flows;
};

void attach_sinks(BorderRouter& router, SinkLog& log) {
  router.set_alarm_mode(true);
  router.set_sampling_rate(3);  // the 1-in-n draw shares the erasure RNG
  router.set_icmp6_sink(
      [&log](Ipv6Packet m) { log.icmp6.push_back(m.serialize()); });
  router.set_alarm_sink(
      [&log](const AlarmSample& a) { log.alarms.push_back(a); });
  router.set_flow_sink(
      [&log](const FlowReport& r) { log.flows.push_back(r); });
}

std::vector<std::uint8_t> wire(const BatchPacket& packet) {
  return std::visit([](const auto& p) { return p.serialize(); }, packet);
}

TEST(RouterWalkTest, InterleavedPerPacketAndBatchCallsMatchPerPacketOnly) {
  constexpr SimTime kNow = 10 * kSecond;
  constexpr std::size_t kMtu = 256;
  const Key128 k_pv = derive_key128(11);   // peer -> victim, current
  const Key128 k_old = derive_key128(33);  // peer -> victim, grace
  const Key128 k_vp = derive_key128(22);   // victim -> peer

  // The victim's router runs both directions on one table set.
  RouterTables victim;
  fill_pfx2as(victim.pfx2as);
  victim.key_v.set_key(kPeerAs, k_old);
  victim.key_v.set_key(kPeerAs, k_pv);  // k_old stays as the grace key
  victim.key_s.set_key(kPeerAs, k_vp);
  victim.out_dst.install(pfx("10.0.0.0/8"), DefenseFunction::kCdpStamp, 0,
                         kHour);
  victim.out_dst.install(*Prefix6::parse("2001:db8:a::/48"),
                         DefenseFunction::kCdpStamp, 0, kHour);
  victim.out_dst.install(pfx("10.1.0.0/16"), DefenseFunction::kDp, 0, kHour);
  victim.in_dst.install(pfx("20.1.0.0/16"), DefenseFunction::kCdpVerify, 0,
                        kHour);
  // Started 1 s ago: inside the 2 s head tolerance, so erase-only.
  victim.in_dst.install(pfx("20.2.0.0/16"), DefenseFunction::kCdpVerify,
                        kNow - kSecond, kHour);
  victim.in_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                        DefenseFunction::kCdpVerify, 0, kHour);

  // Peer-side stampers mint inbound marks under the current and the grace
  // key; a victim-side stamper marks the headers Time Exceeded quotes.
  RouterTables peer_now;
  RouterTables peer_old;
  for (auto* t : {&peer_now, &peer_old}) {
    fill_pfx2as(t->pfx2as);
    t->out_dst.install(pfx("20.0.0.0/8"), DefenseFunction::kCdpStamp, 0,
                       kHour);
    t->out_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                       DefenseFunction::kCdpStamp, 0, kHour);
  }
  peer_now.key_s.set_key(kVictimAs, k_pv);
  peer_old.key_s.set_key(kVictimAs, k_old);
  BorderRouter stamp_now(peer_now, kPeerAs, 5);
  BorderRouter stamp_old(peer_old, kPeerAs, 6);
  BorderRouter stamp_local(victim, kVictimAs, 7);

  Xoshiro256 rng(0x1417);
  auto host4 = [&](std::uint32_t net) {
    return Ipv4Address(net | (static_cast<std::uint32_t>(rng.next()) & 0xffff));
  };
  auto host6 = [&](std::uint16_t site) {
    return Ipv6Address::from_groups(
        {0x2001, 0xdb8, site, 0, 0, 0, 0,
         static_cast<std::uint16_t>(rng.below(0xffff))});
  };
  auto payload = [&](std::size_t max) {
    std::vector<std::uint8_t> bytes(rng.below(max + 1));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    return bytes;
  };

  // Outbound: local sources to the peer (stamped, some fragmented, some v6
  // past the MTU), spoofed sources into the DP prefix (filtered).
  std::vector<BatchPacket> outbound;
  for (int i = 0; i < 300; ++i) {
    const bool spoofed = rng.chance(0.2);
    if (rng.chance(0.4)) {
      outbound.emplace_back(Ipv6Packet::make(
          host6(spoofed ? 0xc : 0xb), host6(0xa), 17,
          std::vector<std::uint8_t>(180 + rng.below(60))));
    } else {
      Ipv4Packet p = Ipv4Packet::make(
          host4(spoofed ? 0x28000000u : 0x14010000u),
          host4(rng.chance(0.5) ? 0x0a010000u : 0x0a020000u), IpProto::kUdp,
          payload(24));
      if (rng.chance(0.25)) {
        p.header.flags |= 0x1;
        p.header.fragment_offset = static_cast<std::uint16_t>(rng.below(64));
        p.header.refresh_checksum();
      }
      outbound.emplace_back(std::move(p));
    }
  }

  // Inbound: marks under the current key, the grace key, none or a wrong
  // one; the tolerance prefix; non-peer sources; quoted-mark ICMP.
  std::vector<BatchPacket> inbound;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t kind = rng.below(6);
    if (rng.chance(0.35)) {
      Ipv6Packet p = Ipv6Packet::make(host6(kind == 4 ? 0xc : 0xa),
                                      host6(0xb), 17, payload(32));
      if (kind == 0) (void)stamp_now.process_outbound(p, kNow);
      if (kind == 1) (void)stamp_old.process_outbound(p, kNow);
      inbound.emplace_back(std::move(p));
      continue;
    }
    Ipv4Packet p = Ipv4Packet::make(
        host4(kind == 4 ? 0x28000000u : 0x0a000000u),
        host4(rng.chance(0.3) ? 0x14020000u : 0x14010000u), IpProto::kUdp,
        payload(24));
    if (rng.chance(0.2)) {
      p.header.flags |= 0x1;
      p.header.refresh_checksum();
    }
    if (kind == 0) (void)stamp_now.process_outbound(p, kNow);
    if (kind == 1) (void)stamp_old.process_outbound(p, kNow);
    if (kind == 2) ipv4_stamp(p, AesCmac(derive_key128(99)));
    if (kind == 5) {
      Ipv4Packet offending = Ipv4Packet::make(
          host4(0x14010000u), host4(0x0a000000u), IpProto::kUdp, payload(8));
      (void)stamp_local.process_outbound(offending, kNow);
      p = build_time_exceeded_v4(offending, host4(0x28000000u));
    }
    inbound.emplace_back(std::move(p));
  }

  BorderRouter mixed(victim, kVictimAs, 42, kMtu);
  BorderRouter reference(victim, kVictimAs, 42, kMtu);
  SinkLog mixed_log;
  SinkLog reference_log;
  attach_sinks(mixed, mixed_log);
  attach_sinks(reference, reference_log);
  std::vector<BatchPacket> mixed_out = outbound;
  std::vector<BatchPacket> mixed_in = inbound;
  std::vector<BatchPacket> reference_out = outbound;
  std::vector<BatchPacket> reference_in = inbound;
  std::vector<Verdict> out_verdicts(outbound.size(), Verdict::kDropSpoofed);
  std::vector<Verdict> in_verdicts(inbound.size(), Verdict::kDropSpoofed);
  std::vector<Verdict> reference_out_verdicts(outbound.size());
  std::vector<Verdict> reference_in_verdicts(inbound.size());

  // Alternate: a run of per-packet calls, then one batch call of size 0, 1
  // or 17 over a shuffled index view, each in a random direction.
  std::size_t next_out = 0;
  std::size_t next_in = 0;
  std::size_t batch_calls = 0;
  for (std::size_t step = 0;; ++step) {
    if (next_out == outbound.size() && next_in == inbound.size()) break;
    const bool out = rng.chance(0.5);
    std::vector<BatchPacket>& pool = out ? mixed_out : mixed_in;
    std::vector<BatchPacket>& reference_pool =
        out ? reference_out : reference_in;
    std::vector<Verdict>& verdicts = out ? out_verdicts : in_verdicts;
    std::vector<Verdict>& reference_verdicts =
        out ? reference_out_verdicts : reference_in_verdicts;
    std::size_t& next = out ? next_out : next_in;
    const bool batch = step % 2 == 1;
    const std::size_t sizes[] = {0, 1, 17};
    const std::size_t want = batch ? sizes[rng.below(3)] : 1 + rng.below(3);
    const std::size_t take = std::min(want, pool.size() - next);

    std::vector<std::uint32_t> indices(take);
    for (std::size_t j = 0; j < take; ++j) {
      indices[j] = static_cast<std::uint32_t>(next + j);
    }
    for (std::size_t j = take; j > 1; --j) {
      std::swap(indices[j - 1], indices[rng.below(j)]);
    }
    if (batch) {
      ++batch_calls;
      if (out) {
        mixed.process_outbound_batch(pool, indices, verdicts, kNow);
      } else {
        mixed.process_inbound_batch(pool, indices, verdicts, kNow);
      }
    } else {
      for (const std::uint32_t i : indices) {
        verdicts[i] = std::visit(
            [&](auto& p) {
              return out ? mixed.process_outbound(p, kNow)
                         : mixed.process_inbound(p, kNow);
            },
            pool[i]);
      }
    }
    for (const std::uint32_t i : indices) {
      reference_verdicts[i] = std::visit(
          [&](auto& p) {
            return out ? reference.process_outbound(p, kNow)
                       : reference.process_inbound(p, kNow);
          },
          reference_pool[i]);
    }
    next += take;
  }
  ASSERT_GT(batch_calls, 20u);

  EXPECT_EQ(out_verdicts, reference_out_verdicts);
  EXPECT_EQ(in_verdicts, reference_in_verdicts);
  for (std::size_t i = 0; i < outbound.size(); ++i) {
    EXPECT_EQ(wire(mixed_out[i]), wire(reference_out[i])) << "outbound " << i;
  }
  for (std::size_t i = 0; i < inbound.size(); ++i) {
    EXPECT_EQ(wire(mixed_in[i]), wire(reference_in[i])) << "inbound " << i;
  }
  EXPECT_EQ(mixed.stats(), reference.stats());
  EXPECT_EQ(mixed_log.icmp6, reference_log.icmp6);
  EXPECT_EQ(mixed_log.flows, reference_log.flows);
  ASSERT_EQ(mixed_log.alarms.size(), reference_log.alarms.size());
  for (std::size_t i = 0; i < mixed_log.alarms.size(); ++i) {
    EXPECT_EQ(mixed_log.alarms[i].time, reference_log.alarms[i].time);
    EXPECT_EQ(mixed_log.alarms[i].source_as, reference_log.alarms[i].source_as);
    EXPECT_EQ(mixed_log.alarms[i].inbound, reference_log.alarms[i].inbound);
  }

  // The mix reached every branch of both walks.
  const RouterStats& stats = reference.stats();
  EXPECT_GT(stats.out_dropped, 0u);
  EXPECT_GT(stats.out_stamped, 0u);
  EXPECT_GT(stats.out_too_big, 0u);
  EXPECT_GT(stats.fragments_stamped, 0u);
  EXPECT_GT(stats.in_verified, 0u);
  EXPECT_GT(stats.in_spoof_sampled, 0u);
  EXPECT_GT(stats.in_erased_tolerance, 0u);
  EXPECT_GT(stats.in_passed_unverified, 0u);
  EXPECT_GT(stats.icmp_scrubbed, 0u);
  EXPECT_FALSE(reference_log.icmp6.empty());
  EXPECT_FALSE(reference_log.flows.empty());
}

TEST(RouterStatsTest, MergeSumsEveryField) {
  RouterStats a;
  a.out_processed = 1;
  a.out_dropped = 2;
  a.out_stamped = 3;
  a.out_too_big = 4;
  a.fragments_stamped = 5;
  a.in_processed = 6;
  a.in_verified = 7;
  a.in_spoof_dropped = 8;
  a.in_spoof_sampled = 9;
  a.in_erased_tolerance = 10;
  a.in_passed_unverified = 11;
  a.icmp_scrubbed = 12;

  RouterStats b;
  b.out_processed = 100;
  b.out_dropped = 200;
  b.out_stamped = 300;
  b.out_too_big = 400;
  b.fragments_stamped = 500;
  b.in_processed = 600;
  b.in_verified = 700;
  b.in_spoof_dropped = 800;
  b.in_spoof_sampled = 900;
  b.in_erased_tolerance = 1000;
  b.in_passed_unverified = 1100;
  b.icmp_scrubbed = 1200;

  RouterStats sum = a;
  sum += b;
  EXPECT_EQ(sum.out_processed, 101u);
  EXPECT_EQ(sum.out_dropped, 202u);
  EXPECT_EQ(sum.out_stamped, 303u);
  EXPECT_EQ(sum.out_too_big, 404u);
  EXPECT_EQ(sum.fragments_stamped, 505u);
  EXPECT_EQ(sum.in_processed, 606u);
  EXPECT_EQ(sum.in_verified, 707u);
  EXPECT_EQ(sum.in_spoof_dropped, 808u);
  EXPECT_EQ(sum.in_spoof_sampled, 909u);
  EXPECT_EQ(sum.in_erased_tolerance, 1010u);
  EXPECT_EQ(sum.in_passed_unverified, 1111u);
  EXPECT_EQ(sum.icmp_scrubbed, 1212u);

  // The free operator+ composes and merging a default adds nothing.
  EXPECT_EQ(a + b, sum);
  EXPECT_EQ(sum + RouterStats{}, sum);
}

}  // namespace
}  // namespace discs
