// Hammers the sharded engine from a table-update thread while batches flow:
// deploy/undeploy of verify windows and two-phase re-keying land mid-stream
// via update_tables(). Invariants checked:
//  * genuinely stamped traffic is NEVER dropped, whatever the interleaving —
//    a torn key-table read would break this;
//  * no counter loss: merged RouterStats account for every packet and every
//    drop verdict the consumer observed;
//  * runs clean under TSan (the CI tsan job builds exactly this binary).
#include "dataplane/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace discs {
namespace {

constexpr AsNumber kPeerAs = 100;
constexpr AsNumber kVictimAs = 200;

// Alternating re-keys between kKeyA and kKeyB with retain_previous=true keep
// packets stamped under kKeyA verifiable at every instant: kKeyA is always
// either the active key or the re-keying grace key.
const Key128 kKeyA = derive_key128(1);
const Key128 kKeyB = derive_key128(2);

struct SharedTables {
  RouterTables victim;
  RouterTables peer;

  SharedTables() {
    auto fill = [](Pfx2AsTable& t) {
      t.add(*Prefix4::parse("10.0.0.0/8"), kPeerAs);
      t.add(*Prefix4::parse("20.0.0.0/8"), kVictimAs);
      t.add(*Prefix6::parse("2001:db8:aaaa::/48"), kPeerAs);
      t.add(*Prefix6::parse("2001:db8:bbbb::/48"), kVictimAs);
    };
    fill(victim.pfx2as);
    fill(peer.pfx2as);
    peer.key_s.set_key(kVictimAs, kKeyA);
    victim.key_v.set_key(kPeerAs, kKeyA);
    peer.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    peer.out_dst.install(*Prefix6::parse("2001:db8:bbbb::/48"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    // The verify window starts deployed; the update thread toggles it.
    deploy(victim);
  }

  static void deploy(RouterTables& t) {
    t.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                     DefenseFunction::kCdpVerify, 0, kHour);
    t.in_dst.install(*Prefix6::parse("2001:db8:bbbb::/48"),
                     DefenseFunction::kCdpVerify, 0, kHour);
  }
  static void undeploy(RouterTables& t) {
    // Windows cannot be deleted individually; expiring everything after
    // rebasing the end time models the teardown. Simpler: expire(kHour+1)
    // clears all windows, deploy() reinstalls.
    t.in_dst.expire(kHour + 1);
  }
};

Ipv4Address rand4(Xoshiro256& rng, std::uint32_t net) {
  return Ipv4Address(net | (static_cast<std::uint32_t>(rng.next()) & 0xffffff));
}

Ipv6Address rand6(Xoshiro256& rng, std::uint16_t site) {
  return Ipv6Address::from_groups(
      {0x2001, 0xdb8, site, static_cast<std::uint16_t>(rng.below(0xffff)), 0, 0,
       0, static_cast<std::uint16_t>(rng.below(0xffff))});
}

TEST(EngineConcurrencyTest, UpdatesMidStreamNeverDropGenuineTraffic) {
  SharedTables shared;
  EngineConfig config;
  config.shards = 4;
  DataPlaneEngine engine(shared.victim, kVictimAs, config);

  constexpr int kBatches = 150;
  constexpr std::size_t kBatchSize = 256;
  constexpr SimTime kNow = kMinute;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> updates{0};
  std::thread updater([&] {
    Xoshiro256 rng(777);
    bool deployed = true;
    bool key_is_a = true;
    while (!stop.load(std::memory_order_acquire)) {
      switch (rng.below(2)) {
        case 0:  // two-phase re-key: the old key stays valid as grace key
          key_is_a = !key_is_a;
          engine.update_tables([&](RouterTables& t) {
            t.key_v.set_key(kPeerAs, key_is_a ? kKeyA : kKeyB,
                            /*retain_previous=*/true);
          });
          break;
        case 1:  // deploy/undeploy of the verify windows
          deployed = !deployed;
          engine.update_tables([&](RouterTables& t) {
            if (deployed) {
              SharedTables::deploy(t);
            } else {
              SharedTables::undeploy(t);
            }
          });
          break;
      }
      updates.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // Consumer: every packet is genuinely stamped with kKeyA, so every verdict
  // must be kPass regardless of how updates interleave.
  BorderRouter stamper(shared.peer, kPeerAs, 11);
  Xoshiro256 rng(123);
  std::uint64_t processed = 0;
  for (int b = 0; b < kBatches; ++b) {
    PacketBatch batch;
    batch.reserve(kBatchSize);
    while (batch.size() < kBatchSize) {
      if (rng.chance(0.3)) {
        Ipv6Packet p = Ipv6Packet::make(rand6(rng, 0xaaaa), rand6(rng, 0xbbbb),
                                        17, std::vector<std::uint8_t>(16));
        ASSERT_EQ(stamper.process_outbound(p, kNow), Verdict::kPass);
        batch.add(std::move(p));
      } else {
        Ipv4Packet p = Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                        rand4(rng, 0x14000000u), IpProto::kUdp,
                                        std::vector<std::uint8_t>(16));
        ASSERT_EQ(stamper.process_outbound(p, kNow), Verdict::kPass);
        batch.add(std::move(p));
      }
    }
    const std::vector<Verdict> verdicts = engine.process_inbound(batch, kNow);
    ASSERT_EQ(verdicts.size(), kBatchSize);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      ASSERT_EQ(verdicts[i], Verdict::kPass)
          << "batch " << b << " packet " << i
          << ": genuine packet dropped mid-update";
    }
    processed += verdicts.size();
  }
  stop.store(true, std::memory_order_release);
  updater.join();

  // No counter loss: the merged stats account for every packet, and no
  // interleaving ever produced a spoof verdict.
  const RouterStats stats = engine.stats();
  EXPECT_EQ(stats.in_processed, processed);
  EXPECT_EQ(stats.in_spoof_dropped, 0u);
  EXPECT_EQ(stats.in_spoof_sampled, 0u);
  EXPECT_GT(updates.load(), 0u);
}

// Spoofed traffic is judged against whatever table state its batch ran
// under: the verdict is kPass (window undeployed / key absent) or
// kDropSpoofed (window live) — never a crash, never a lost counter.
TEST(EngineConcurrencyTest, SpoofedTrafficCountsStayConsistent) {
  SharedTables shared;
  EngineConfig config;
  config.shards = 3;
  DataPlaneEngine engine(shared.victim, kVictimAs, config);

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    Xoshiro256 rng(31);
    bool deployed = true;
    while (!stop.load(std::memory_order_acquire)) {
      deployed = !deployed;
      engine.update_tables([&](RouterTables& t) {
        if (deployed) {
          SharedTables::deploy(t);
        } else {
          SharedTables::undeploy(t);
        }
      });
      std::this_thread::yield();
    }
  });

  Xoshiro256 rng(321);
  std::uint64_t submitted = 0;
  std::uint64_t dropped_seen = 0;
  for (int b = 0; b < 150; ++b) {
    PacketBatch batch;
    for (std::size_t i = 0; i < 256; ++i) {
      // Unstamped packets claiming a peer source: spoofed whenever the
      // verify window is live.
      batch.add(Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                 rand4(rng, 0x14000000u), IpProto::kUdp,
                                 std::vector<std::uint8_t>(8)));
    }
    submitted += batch.size();
    for (const Verdict v : engine.process_inbound(batch, kMinute)) {
      ASSERT_TRUE(v == Verdict::kPass || v == Verdict::kDropSpoofed);
      dropped_seen += v == Verdict::kDropSpoofed;
    }
  }
  stop.store(true, std::memory_order_release);
  updater.join();

  const RouterStats stats = engine.stats();
  EXPECT_EQ(stats.in_processed, submitted);
  EXPECT_EQ(stats.in_spoof_dropped, dropped_seen);
  EXPECT_EQ(stats.in_verified, 0u);
}

}  // namespace
}  // namespace discs
