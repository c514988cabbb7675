// What the three workloads share: the control-plane settings, the set-up
// record, the control-plane figures every world yields, and the per-layer
// probes of a traced run (each timed around one public call on the
// workload's own inputs).
#pragma once

#include <vector>

#include "world.hpp"

namespace perfbench {

inline constexpr discs::SimTime kChannelLatency = 20 * discs::kMillisecond;
inline constexpr discs::SimTime kChannelJitter = 10 * discs::kMillisecond;
inline constexpr discs::SimTime kConRouLatency = 5 * discs::kMillisecond;
inline constexpr discs::SimTime kPeeringSettle = 30 * discs::kSecond;
inline constexpr discs::SimTime kInvokeSettle = 30 * discs::kSecond;
/// Host seconds of key rotation after a packet workload's timed phase.
inline constexpr double kRekeyBusySeconds = 3.0;

struct SetupTimes {
  double dataset_s = 0, world_s = 0, deploy_s = 0, peer_s = 0, invoke_s = 0;
  double rss_mb_per_das = 0;
};

struct InvokeStats {
  std::size_t calls = 0;        // invoke_* calls made
  std::size_t protections = 0;  // (prefix, peer) pairs expected to enforce
  double call_s = 0;            // host time inside the invoke calls
};

/// Each victim invokes protection for every one of its prefixes (IPv4 and
/// IPv6) in one call per prefix — direct (DP+CDP) or reflection (SP+CSP) as
/// `reflection` says — at the loop's current time. Probes and the oracle's
/// model are registered alongside; the victims' prefix lists must agree
/// with the oracle's.
InvokeStats invoke_each_prefix(LoopStepper& stepper, Oracle& oracle,
                               const std::vector<discs::Controller*>& victims,
                               const std::vector<bool>& reflection, Report& report);

struct ControlFigures {
  double ops = 0;          // peerings + rekeys committed + protections
  double busy_s = 0;       // host time of the steps and protocol calls
  double wire_bytes = 0;   // con-con bytes (ConConNetwork::stats())
  std::vector<double> ttp_ms;
  double msgs = 0, retransmits = 0, handshakes = 0, delivery_failures = 0;
  double invoke_calls = 0, invoke_s = 0;
  double events = 0, step_s = 0;
  // Message mix for the codec probe.
  double peering_requests = 0, keys = 0, invocations = 0, acks = 0;
};

/// Folds a finished control phase into figures and checks it: every probe
/// resolved, every TTP sample at least one channel plus con-rou latency, no
/// delivery failure.
ControlFigures control_figures(const LoopStepper& stepper, const discs::ConConNetwork& net,
                               const std::vector<discs::Controller*>& controllers,
                               std::size_t peerings, const InvokeStats& invoked,
                               Report& report);
void add_figures(ControlFigures& into, const ControlFigures& from);

/// Key rotation (§IV-D) after a packet workload's timed phase: every DAS
/// rekeys all its peers and the loop runs until each rekey commits, round
/// after round, until `busy_s` host seconds of control work have been spent.
/// Adds the rekeys and their host time to `figures` (not their bytes: the
/// wire count stays that of the deterministic set-up phase) and one window
/// per round to `rounds`.
void rekey_rounds(LoopStepper& stepper, const std::vector<discs::Controller*>& controllers,
                  double busy_s, ControlFigures& figures, RateWindows& rounds, Report& report);

/// ctl_ops_per_s (from `ctl_rate`, one window per round), ctl_wire_bytes,
/// ttp_p50_ms, ttp_p95_ms.
void report_control_figures(Report& report, const ControlFigures& figures,
                            const RateWindows& ctl_rate);

struct FacadeCost {
  double origin_of_ns = 0;   // per destination lookup
  double path_us = 0;        // per origin/destination pair
  double paths_per_pkt = 0;  // distinct destinations per batch / batch size
  double engine_out_ns = 0;  // per packet, at the workload's shard count
  double engine_in_ns = 0;
};

/// Per-layer figures of a traced run.
class LayerProbe {
 public:
  LayerProbe(Report& report, Tracer& tracer) : report_(report), tracer_(tracer) {}

  void setup(const SetupTimes& s);
  void control(const ControlFigures& figures);
  /// origin_of, path and the engine stages as send_batch composes them, on
  /// `sample` sent from `origin` in batches of `batch`.
  FacadeCost facade(discs::DiscsSystem& system, AsNumber origin,
                    const std::vector<BatchPacket>& sample, std::size_t batch);
  /// Crypto, LPM, router and engine rungs on the packets of `sample` that
  /// leave `stamper` for `verifier` (stamped at one, verified at the other).
  void packet_layers(discs::Controller& stamper, discs::Controller& verifier,
                     const std::vector<BatchPacket>& sample, discs::SimTime now);
  /// core.send_batch_ns, core.send_packet_us, core.gap_ns, core.allocs_per_pkt.
  void composition(const FacadeCost& cost, double allocs_per_pkt, double batch_s_per_pkt,
                   double serial_s_per_pkt);
  /// lpm.fn_rebuild_us and txn.key_apply_us on `at`'s engine.
  void rebuild_and_rekey(discs::Controller& at, const Oracle& oracle,
                         const std::vector<AsNumber>& donors, discs::SimTime now);
  /// codec.encode_ns / codec.decode_ns over a message mix in the run's
  /// proportions; InvocationRequests carry `prefixes`.
  void codec(const std::vector<Prefix4>& prefixes, const ControlFigures& figures);
  /// trace.overhead_pct: `call` timed with and without spans, alternating.
  void overhead(const std::function<void(bool traced)>& call, int reps);
  /// Writes the span dump (Chrome trace_event JSON) under args.out_dir.
  void finish(const Args& args, const char* workload);

 private:
  void ns(const char* name, double seconds_per_item) {
    report_.metric(name, seconds_per_item * 1e9, "ns");
  }
  Report& report_;
  Tracer& tracer_;
};

}  // namespace perfbench
