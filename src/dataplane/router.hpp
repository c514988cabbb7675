// The DISCS border-router engine: the §V-C processing flow over the §V-A
// tables, with alarm mode (§IV-F), IPv6 MTU handling (§V-F) and the ICMP
// Time Exceeded mark scrubbing of §VI-E2.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/stamp.hpp"
#include "dataplane/tables.hpp"
#include "dataplane/tuple.hpp"
#include "net/icmp.hpp"
#include "telemetry/metrics.hpp"

namespace discs {

/// One packet of either family inside a batch (the engine's unit of work).
using BatchPacket = std::variant<Ipv4Packet, Ipv6Packet>;

/// What the router decided to do with a packet.
enum class Verdict : std::uint8_t {
  kPass,          // forward
  kDropFiltered,  // DP/SP end-based filter fired
  kDropSpoofed,   // mark verification failed
  kDropTooBig,    // IPv6 stamping would exceed the MTU (PTB emitted)
};

[[nodiscard]] constexpr bool is_drop(Verdict v) { return v != Verdict::kPass; }

/// A sampled spoofing report emitted in alarm mode (the NetFlow/sFlow record
/// of §IV-F, reduced to what the controller's detector consumes).
struct AlarmSample {
  SimTime time = 0;
  AsNumber source_as = kNoAs;  // Pfx2AS of the claimed source
  bool inbound = true;
};

/// The full §IV-F NetFlow/sFlow-style record for one sampled spoofing
/// packet: addresses, the function table that demanded verification, the
/// verdict the router applied (kPass in alarm mode, kDropSpoofed in drop
/// mode), and the sampling rate so a scraper can extrapolate volumes.
/// Emitted through the flow sink under the same 1-in-n sampling decision
/// as AlarmSample; collected by the victim controller into its report ring.
struct FlowReport {
  SimTime time = 0;
  AsNumber source_as = kNoAs;  // Pfx2AS of the claimed source
  bool inbound = true;
  bool ipv6 = false;
  Ipv4Address src4{};  // valid when !ipv6
  Ipv4Address dst4{};
  Ipv6Address src6{};  // valid when ipv6
  Ipv6Address dst6{};
  /// Verify functions that matched (kCspVerify from In-Src and/or
  /// kCdpVerify from In-Dst).
  FunctionSet functions = 0;
  Verdict verdict = Verdict::kDropSpoofed;
  std::uint32_t sample_rate = 1;  // 1-in-n NetFlow-style sampling

  /// Field-wise equality, used by the engine conformance and determinism
  /// suites to pin flow-report ring contents across runs.
  friend bool operator==(const FlowReport&, const FlowReport&) = default;
};

struct RouterStats {
  std::uint64_t out_processed = 0;
  std::uint64_t out_dropped = 0;     // DP/SP
  std::uint64_t out_stamped = 0;
  std::uint64_t out_too_big = 0;
  /// Fragmented IPv4 packets whose IPID/offset were overwritten by a stamp
  /// — the §V-E collateral damage (~0.06% of real traffic): reassembly at
  /// the destination will fail for these.
  std::uint64_t fragments_stamped = 0;
  std::uint64_t in_processed = 0;
  std::uint64_t in_verified = 0;     // valid mark, erased
  std::uint64_t in_spoof_dropped = 0;
  std::uint64_t in_spoof_sampled = 0;  // alarm mode: identified but passed
  std::uint64_t in_erased_tolerance = 0;
  std::uint64_t in_passed_unverified = 0;
  std::uint64_t icmp_scrubbed = 0;

  /// Field-wise accumulation, used to merge per-shard counters into batch
  /// aggregates (DataPlaneEngine) and by the bench reports.
  RouterStats& operator+=(const RouterStats& other) {
    out_processed += other.out_processed;
    out_dropped += other.out_dropped;
    out_stamped += other.out_stamped;
    out_too_big += other.out_too_big;
    fragments_stamped += other.fragments_stamped;
    in_processed += other.in_processed;
    in_verified += other.in_verified;
    in_spoof_dropped += other.in_spoof_dropped;
    in_spoof_sampled += other.in_spoof_sampled;
    in_erased_tolerance += other.in_erased_tolerance;
    in_passed_unverified += other.in_passed_unverified;
    icmp_scrubbed += other.icmp_scrubbed;
    return *this;
  }

  friend RouterStats operator+(RouterStats lhs, const RouterStats& rhs) {
    return lhs += rhs;
  }
  friend bool operator==(const RouterStats&, const RouterStats&) = default;
};

class BorderRouter {
 public:
  /// `tables` must outlive the router (the controller owns them and pushes
  /// updates; the router only reads).
  BorderRouter(const RouterTables& tables, AsNumber local_as,
               std::uint64_t rng_seed, std::size_t external_mtu = 1500)
      : tables_(&tables),
        tuples_(tables, local_as),
        rng_(rng_seed),
        mtu_(external_mtu) {}

  /// Alarm mode: identified spoofing packets are sampled and passed instead
  /// of dropped (paper §IV-F).
  void set_alarm_mode(bool on) { alarm_mode_ = on; }
  [[nodiscard]] bool alarm_mode() const { return alarm_mode_; }

  // Sink contract (alarm, flow, ICMPv6 and the traffic observer): a sink
  // runs in the middle of a walk and must not re-enter this router —
  // per-packet and batch calls share its walk scratch.

  /// Receives alarm-mode samples. By default every identified packet is
  /// reported; set_sampling_rate(n) reports 1-in-n (NetFlow/sFlow style,
  /// §IV-F) — sampling is deterministic-random from the router's stream.
  void set_alarm_sink(std::function<void(const AlarmSample&)> sink) {
    alarm_sink_ = std::move(sink);
  }
  void set_sampling_rate(std::uint32_t one_in_n) {
    sampling_rate_ = one_in_n == 0 ? 1 : one_in_n;
  }

  /// Receives the full flow report for every sampled spoofing packet (the
  /// alarm-mode NetFlow record). Shares the sampling decision with the
  /// alarm sink: when both sinks are installed, each sampled packet emits
  /// one AlarmSample and one FlowReport.
  void set_flow_sink(std::function<void(const FlowReport&)> sink) {
    flow_sink_ = std::move(sink);
  }

  /// Telemetry hook: records the AES-CMAC flush size of every batch call
  /// (how full the pipelined MAC batches run). nullptr disables. The
  /// histogram must outlive the router; recording is a relaxed atomic add,
  /// safe from the shard worker thread.
  void set_cmac_occupancy_histogram(telemetry::Histogram* histogram) {
    cmac_occupancy_ = histogram;
  }

  /// Receives ICMPv6 messages the router originates (Packet Too Big).
  void set_icmp6_sink(std::function<void(Ipv6Packet)> sink) {
    icmp6_sink_ = std::move(sink);
  }

  /// Observes every inbound IPv4 packet's destination before processing —
  /// the tap an attack-detection module (§IV-E1) hangs off.
  void set_traffic_observer(std::function<void(Ipv4Address, SimTime)> observer) {
    traffic_observer_ = std::move(observer);
  }

  /// Processes a packet leaving the local AS through this border router.
  /// Runs the batch walk below over this one packet: phase A, a one-item
  /// MAC flush, phase B. No packet copy, no allocation after warm-up.
  Verdict process_outbound(Ipv4Packet& packet, SimTime now);
  Verdict process_outbound(Ipv6Packet& packet, SimTime now);

  /// Processes a packet entering the local AS through this border router.
  Verdict process_inbound(Ipv4Packet& packet, SimTime now);
  Verdict process_inbound(Ipv6Packet& packet, SimTime now);

  /// Batched counterparts over `packets[indices...]`: phase A walks the
  /// packets in `indices` order collecting deferred AES-CMAC work, one
  /// mac_truncated_batch() flush pipelines every mark computation through
  /// the crypto backend (AES-NI keeps up to 8 CBC chains in flight), phase
  /// B applies verdicts and side effects in the same order. Verdicts,
  /// stats, RNG consumption and sink emission order are identical to
  /// calling the per-packet entry points in `indices` order.
  void process_outbound_batch(std::span<BatchPacket> packets,
                              std::span<const std::uint32_t> indices,
                              std::span<Verdict> verdicts, SimTime now);
  void process_inbound_batch(std::span<BatchPacket> packets,
                             std::span<const std::uint32_t> indices,
                             std::span<Verdict> verdicts, SimTime now);

  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  [[nodiscard]] AsNumber local_as() const { return tuples_.local_as(); }

 private:
  // Walk scratch (one packet that still needs phase B, and its deferred
  // MAC slot when one was queued), shared by both entry kinds. Kept as
  // members so repeated calls reuse the allocations.
  struct PendingOut {
    std::uint32_t idx;
    std::uint32_t work;
    bool fragmented;  // IPv4 §V-E collateral accounting
  };
  struct PendingIn {
    std::uint32_t idx;
    std::int32_t work;  // -1: no MAC queued (erase-only/unverified/absent)
    InTuple tuple;
    bool mark_absent;  // IPv6 packet with no DISCS option
  };

  // The §V-C walk for one packet, shared by both entry kinds. Phase A:
  // tuple lookup and the drop/too-big decisions (outbound), or
  // observation, scrubbing and the verify decision (inbound); a packet
  // that needs a MAC queues it in mac_work_, and itself (tagged `idx`) in
  // pending_out_/pending_in_. Phase B runs after the flush: write the
  // mark, or judge/erase it. Inbound phase-A verdicts are provisional.
  template <typename Packet>
  Verdict outbound_a(Packet& packet, std::uint32_t idx, SimTime now);
  template <typename Packet>
  void outbound_b(Packet& packet, const PendingOut& pending);
  template <typename Packet>
  Verdict inbound_a(Packet& packet, std::uint32_t idx, SimTime now);
  template <typename Packet>
  Verdict inbound_b(Packet& packet, const PendingIn& pending, SimTime now);
  /// The per-packet entry points: phase A, flush, phase B over one packet.
  template <typename Packet>
  Verdict outbound_one(Packet& packet, SimTime now);
  template <typename Packet>
  Verdict inbound_one(Packet& packet, SimTime now);

  /// The §V-C spoof consequence: count, report (alarm sample + flow report
  /// under one sampling decision), and decide pass (alarm mode) vs drop.
  template <typename Packet>
  Verdict spoof_consequence(const Packet& packet, const InTuple& tuple,
                            const AlarmSample& sample);

  const RouterTables* tables_;
  TupleGenerator tuples_;
  Xoshiro256 rng_;
  std::size_t mtu_;
  std::uint32_t sampling_rate_ = 1;
  bool alarm_mode_ = false;
  std::function<void(const AlarmSample&)> alarm_sink_;
  std::function<void(const FlowReport&)> flow_sink_;
  std::function<void(Ipv6Packet)> icmp6_sink_;
  std::function<void(Ipv4Address, SimTime)> traffic_observer_;
  telemetry::Histogram* cmac_occupancy_ = nullptr;
  RouterStats stats_;
  std::vector<CmacWork> mac_work_;
  std::vector<PendingOut> pending_out_;
  std::vector<PendingIn> pending_in_;
};

}  // namespace discs
