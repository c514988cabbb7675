#include "dataplane/router.hpp"

namespace discs {

namespace {
/// How many packets ahead the batch phase-A loops issue table prefetches:
/// far enough to cover a DRAM round-trip at per-packet lookup cost, close
/// enough that the hinted lines survive until their packet is processed.
constexpr std::size_t kPrefetchLookahead = 8;
}  // namespace

template <typename Packet>
Verdict BorderRouter::outbound_a(Packet& packet, std::uint32_t idx,
                                 SimTime now) {
  ++stats_.out_processed;
  const OutTuple tuple =
      tuples_.out_tuple(packet.header.src, packet.header.dst, now);
  if (tuple.drop) {
    ++stats_.out_dropped;
    return Verdict::kDropFiltered;
  }
  if (!tuple.stamp) return Verdict::kPass;
  bool fragmented = false;
  if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
    // §V-E collateral: a fragment's IPID/offset are load-bearing; stamping
    // over them breaks reassembly for this flow. The paper accepts this
    // (~0.06% of traffic) for prefixes under active attack; we count it.
    fragmented =
        (packet.header.flags & 0x1) != 0 || packet.header.fragment_offset != 0;
    ipv4_mark_work(packet, tuple.key_s->active_mac, mac_work_.emplace_back());
  } else {
    if (ipv6_stamp_would_exceed(packet, mtu_)) {
      ++stats_.out_too_big;
      if (icmp6_sink_) {
        // Advertise 8 bytes below the external-link MTU so the retried
        // packet still fits after stamping (paper §V-F).
        icmp6_sink_(build_packet_too_big_v6(
            packet, packet.header.src /* router speaks for the path */,
            static_cast<std::uint32_t>(mtu_ - 8)));
      }
      return Verdict::kDropTooBig;
    }
    ipv6_mark_work(packet, tuple.key_s->active_mac, mac_work_.emplace_back());
  }
  pending_out_.push_back(
      {idx, static_cast<std::uint32_t>(mac_work_.size() - 1), fragmented});
  return Verdict::kPass;
}

template <typename Packet>
void BorderRouter::outbound_b(Packet& packet, const PendingOut& pending) {
  const auto mark = static_cast<std::uint32_t>(mac_work_[pending.work].result);
  if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
    ipv4_stamp_precomputed(packet, mark);
    stats_.fragments_stamped += pending.fragmented;
  } else {
    ipv6_stamp_precomputed(packet, mark);
  }
  ++stats_.out_stamped;
}

template <typename Packet>
Verdict BorderRouter::inbound_a(Packet& packet, std::uint32_t idx,
                                SimTime now) {
  ++stats_.in_processed;
  // The detector tap sees every IPv4 packet; then §VI-E2: scrub marks
  // echoed inside inbound ICMP Time Exceeded messages before they can
  // reach a snooping host.
  if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
    if (traffic_observer_) traffic_observer_(packet.header.dst, now);
    if (scrub_quoted_mark_v4(packet)) ++stats_.icmp_scrubbed;
  } else {
    if (scrub_quoted_mark_v6(packet)) ++stats_.icmp_scrubbed;
  }
  const InTuple tuple =
      tuples_.in_tuple(packet.header.src, packet.header.dst, now);
  if (!tuple.verify) return Verdict::kPass;
  PendingIn pending{idx, /*work=*/-1, tuple, /*mark_absent=*/false};
  // Tolerance interval or a non-peer source: erase-or-pass, no MAC.
  if (!tuple.erase_only && tuple.key_v != nullptr) {
    bool absent = false;
    if constexpr (std::is_same_v<Packet, Ipv6Packet>) {
      absent = !ipv6_read_mark(packet).has_value();
    }
    if (absent) {
      pending.mark_absent = true;
    } else {
      pending.work = static_cast<std::int32_t>(mac_work_.size());
      if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
        ipv4_mark_work(packet, tuple.key_v->active_mac,
                       mac_work_.emplace_back());
      } else {
        ipv6_mark_work(packet, tuple.key_v->active_mac,
                       mac_work_.emplace_back());
      }
    }
  }
  pending_in_.push_back(pending);
  return Verdict::kPass;  // provisional; phase B finalizes
}

template <typename Packet>
Verdict BorderRouter::inbound_b(Packet& packet, const PendingIn& pending,
                                SimTime now) {
  const InTuple& tuple = pending.tuple;
  if (tuple.erase_only) {
    if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
      ipv4_erase(packet, rng_);
    } else {
      ipv6_erase(packet);
    }
    ++stats_.in_erased_tolerance;
    return Verdict::kPass;
  }
  if (tuple.key_v == nullptr) {
    ++stats_.in_passed_unverified;
    return Verdict::kPass;
  }
  const AesCmac* grace =
      tuple.key_v->previous_mac ? &*tuple.key_v->previous_mac : nullptr;
  VerifyResult result = VerifyResult::kAbsent;
  if (!pending.mark_absent) {
    const auto expected = static_cast<std::uint32_t>(
        mac_work_[static_cast<std::size_t>(pending.work)].result);
    if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
      result = ipv4_verify_precomputed(packet, expected, grace, rng_);
    } else {
      result = ipv6_verify_precomputed(packet, expected, grace);
    }
  }
  if (result == VerifyResult::kValid) {
    ++stats_.in_verified;
    return Verdict::kPass;
  }
  return spoof_consequence(
      packet, tuple,
      {now, tables_->pfx2as.lookup(packet.header.src), /*inbound=*/true});
}

template <typename Packet>
Verdict BorderRouter::spoof_consequence(const Packet& packet,
                                        const InTuple& tuple,
                                        const AlarmSample& sample) {
  // Alarm mode: identify, sample, forward (§IV-F); otherwise drop.
  const Verdict verdict = alarm_mode_ ? Verdict::kPass : Verdict::kDropSpoofed;
  if (alarm_mode_) {
    ++stats_.in_spoof_sampled;
  } else {
    ++stats_.in_spoof_dropped;
  }
  // One 1-in-n sampling decision feeds both sinks, so an AlarmSample and
  // its FlowReport always describe the same packet. The RNG is drawn only
  // when a sink is installed and sampling is active, which keeps the
  // router's stream identical to the pre-flow-report behaviour whenever
  // only the alarm sink is bound.
  if (alarm_sink_ || flow_sink_) {
    if (sampling_rate_ <= 1 || rng_.below(sampling_rate_) == 0) {
      if (alarm_sink_) alarm_sink_(sample);
      if (flow_sink_) {
        FlowReport report;
        report.time = sample.time;
        report.source_as = sample.source_as;
        report.inbound = sample.inbound;
        if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
          report.src4 = packet.header.src;
          report.dst4 = packet.header.dst;
        } else {
          report.ipv6 = true;
          report.src6 = packet.header.src;
          report.dst6 = packet.header.dst;
        }
        report.functions = tuple.verify_fns;
        report.verdict = verdict;
        report.sample_rate = sampling_rate_;
        flow_sink_(report);
      }
    }
  }
  return verdict;
}

template <typename Packet>
Verdict BorderRouter::outbound_one(Packet& packet, SimTime now) {
  mac_work_.clear();
  pending_out_.clear();
  const Verdict verdict = outbound_a(packet, 0, now);
  if (pending_out_.empty()) return verdict;
  mac_truncated_batch(mac_work_);
  outbound_b(packet, pending_out_.front());
  return verdict;
}

template <typename Packet>
Verdict BorderRouter::inbound_one(Packet& packet, SimTime now) {
  mac_work_.clear();
  pending_in_.clear();
  const Verdict verdict = inbound_a(packet, 0, now);
  if (pending_in_.empty()) return verdict;
  mac_truncated_batch(mac_work_);
  return inbound_b(packet, pending_in_.front(), now);
}

Verdict BorderRouter::process_outbound(Ipv4Packet& packet, SimTime now) {
  return outbound_one(packet, now);
}

Verdict BorderRouter::process_outbound(Ipv6Packet& packet, SimTime now) {
  return outbound_one(packet, now);
}

Verdict BorderRouter::process_inbound(Ipv4Packet& packet, SimTime now) {
  return inbound_one(packet, now);
}

Verdict BorderRouter::process_inbound(Ipv6Packet& packet, SimTime now) {
  return inbound_one(packet, now);
}

void BorderRouter::process_outbound_batch(std::span<BatchPacket> packets,
                                          std::span<const std::uint32_t> indices,
                                          std::span<Verdict> verdicts,
                                          SimTime now) {
  mac_work_.clear();
  pending_out_.clear();
  // Phase A in index order. The lookahead hints the sealed tables' root
  // lines a few packets early so their likely-cold loads overlap the
  // lookups in between (no-op on unsealed tries).
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i + kPrefetchLookahead < indices.size()) {
      std::visit(
          [&](const auto& ahead) {
            tuples_.prefetch_out(ahead.header.src, ahead.header.dst);
          },
          packets[indices[i + kPrefetchLookahead]]);
    }
    const std::uint32_t idx = indices[i];
    verdicts[idx] = std::visit(
        [&](auto& packet) { return outbound_a(packet, idx, now); },
        packets[idx]);
  }
  // All marks in one pipelined pass, then phase B writes them in order.
  if (cmac_occupancy_ != nullptr && !indices.empty()) {
    cmac_occupancy_->record(static_cast<double>(mac_work_.size()));
  }
  mac_truncated_batch(mac_work_);
  for (const PendingOut& pending : pending_out_) {
    std::visit([&](auto& packet) { outbound_b(packet, pending); },
               packets[pending.idx]);
  }
}

void BorderRouter::process_inbound_batch(std::span<BatchPacket> packets,
                                         std::span<const std::uint32_t> indices,
                                         std::span<Verdict> verdicts,
                                         SimTime now) {
  mac_work_.clear();
  pending_in_.clear();
  // Phase A in index order; verification outcomes (and the RNG-driven mark
  // erasure) wait for phase B. Lookahead as in the outbound phase A.
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i + kPrefetchLookahead < indices.size()) {
      std::visit(
          [&](const auto& ahead) {
            tuples_.prefetch_in(ahead.header.src, ahead.header.dst);
          },
          packets[indices[i + kPrefetchLookahead]]);
    }
    const std::uint32_t idx = indices[i];
    verdicts[idx] = std::visit(
        [&](auto& packet) { return inbound_a(packet, idx, now); },
        packets[idx]);
  }
  if (cmac_occupancy_ != nullptr && !indices.empty()) {
    cmac_occupancy_->record(static_cast<double>(mac_work_.size()));
  }
  mac_truncated_batch(mac_work_);
  for (const PendingIn& pending : pending_in_) {
    verdicts[pending.idx] = std::visit(
        [&](auto& packet) { return inbound_b(packet, pending, now); },
        packets[pending.idx]);
  }
}

}  // namespace discs
