// paper_stream: the compiled data path at the paper's scale.
//
// The full 44,036-AS synthetic internet (about 421k prefixes) with two DASes
// deployed through DiscsSystem; they peer, and the local DAS invokes DP+CDP
// for every one of its prefixes. A Zipf(s=1.2) stream over a million flows
// then goes straight through the peer's DataPlaneEngine::process_outbound
// (stamp, or DP drop) and the local DAS's process_inbound (verify, or CDP
// drop), with the engines' metrics bound to a registry as in a running node.
// The facade is bypassed. A slice of every chunk also goes through the
// BorderRouter per-packet entry points.
//
// One shard per engine: with two, the rate depends on two vCPUs being free
// of the host's SMT co-tenant at once, and five runs spread by 15% against
// 4% for the single-threaded router path (README, "Host and steadiness").
#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "layers.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kAses = 44036;
constexpr std::size_t kPrefixes = 442000;
constexpr std::size_t kShards = 1;
constexpr std::size_t kFlows = std::size_t{1} << 20;
constexpr double kZipfS = 1.2;
constexpr std::size_t kChunk = 8192;
constexpr std::size_t kChunks = 32;
constexpr std::size_t kSerialSlice = 64;

/// What a flow is, and therefore which stages see its packets.
enum class FlowClass : std::uint8_t {
  kLegit,        // peer -> local: stamped out, verified in
  kDpSpoof,      // claims a non-peer source inside the peer: DP drop out
  kPeerOther,    // peer -> a legacy AS: passes out untouched
  kLegacyIn,     // legacy -> local: passes in unverified
  kSpoofedPeer,  // legacy agent claiming the peer's source: CDP drop in
};
constexpr int kClasses = 5;
constexpr int kClassShare[kClasses] = {40, 20, 10, 15, 15};  // percent

struct Chunk {
  std::vector<BatchPacket> packets;
  std::vector<std::uint8_t> role;  // bit 0: outbound stage, bit 1: inbound
  std::vector<std::uint32_t> out_idx, in_idx;
  std::vector<Verdict> expect_out, expect_in;  // indexed like packets
};

/// Zipf(s) ranks over n flows by inverse CDF (the benchmark's own sampler).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += std::pow(static_cast<double>(k + 1), -s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.unit();
    return static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                    cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Flow {
  FlowClass cls;
  BatchPacket packet;
  Verdict out = Verdict::kPass;
  bool stamped = false;
  Verdict in = Verdict::kPass;
};

}  // namespace

void run_paper_stream(const Args& args, Report& report) {
  check_cmac_known_answers(report);
  Tracer tracer(args.trace);
  SetupTimes setup;
  Rng rng(discs::derive_seed(args.seed, 0x5c41e));
  // Declared before the world: the controllers unbind from it on teardown.
  discs::telemetry::MetricsRegistry registry;

  auto t = Clock::now();
  discs::SyntheticConfig internet{.num_ases = kAses, .num_prefixes = kPrefixes,
                                  .seed = 20121011};
  discs::InternetDataset dataset = discs::generate_dataset(internet);
  setup.dataset_s = seconds_between(t, Clock::now());

  t = Clock::now();
  discs::DiscsSystem::Config cfg;
  cfg.internet = internet;
  cfg.seed = args.seed;
  cfg.channel_latency = kChannelLatency;
  cfg.fault_plan.latency_jitter = kChannelJitter;
  cfg.fault_plan.seed = discs::derive_seed(args.seed, 0xc4a);
  cfg.controller.con_rou_latency = kConRouLatency;
  cfg.controller.engine.shards = kShards;
  discs::DiscsSystem system(std::move(dataset), cfg);
  Oracle oracle(system.dataset());
  setup.world_s = seconds_between(t, Clock::now());

  t = Clock::now();
  const double rss0 = current_rss_mb();
  const std::vector<AsNumber> by_space = system.dataset().ases_by_space_desc();
  const AsNumber local_as = by_space[0];
  const AsNumber peer_as = by_space[1];
  discs::Controller& local = system.deploy(local_as);
  discs::Controller& peer = system.deploy(peer_as);
  oracle.add_das(local_as);
  oracle.add_das(peer_as);
  setup.deploy_s = seconds_between(t, Clock::now());
  setup.rss_mb_per_das = (current_rss_mb() - rss0) / 2;
  local.bind_metrics(registry);
  peer.bind_metrics(registry);

  t = Clock::now();
  const std::vector<discs::Controller*> controllers = {&local, &peer};
  LoopStepper stepper(system.loop(), controllers);
  stepper.run_until(system.now() + kPeeringSettle);
  report.check(full_mesh(controllers), "paper_stream: the two DASes did not peer");
  setup.peer_s = seconds_between(t, Clock::now());

  t = Clock::now();
  const InvokeStats invoked = invoke_each_prefix(stepper, oracle, {&local}, {false}, report);
  stepper.run_until(system.now() + kInvokeSettle);
  setup.invoke_s = seconds_between(t, Clock::now());
  ControlFigures control =
      control_figures(stepper, system.channel(), controllers, 1, invoked, report);
  oracle.set_keys(world_keys([&](AsNumber as) { return system.controller(as); }));
  report.check(key_mismatches(controllers, oracle, rng) == 0,
               "paper_stream: stamping and verification keys disagree");

  // ---- inputs: flows drawn lazily by Zipf rank, packets pooled in chunks ----
  AddressPicker pick(oracle);
  const Zipf zipf(kFlows, kZipfS);
  std::unordered_map<std::size_t, Flow> flows;
  const auto legacy_as = [&](Rng& r) { return by_space[2 + r.below(2000)]; };
  const auto make_flow = [&](std::size_t rank) -> Flow& {
    const auto [it, fresh] = flows.try_emplace(rank);
    Flow& f = it->second;
    if (!fresh) return f;
    Rng fr(discs::derive_seed(args.seed, rank + 1));
    int roll = static_cast<int>(fr.below(100));
    int cls = 0;
    while (roll >= kClassShare[cls]) roll -= kClassShare[cls++];
    f.cls = static_cast<FlowClass>(cls);
    std::optional<Ipv4Address> src, dst;
    while (!src || !dst) {
      switch (f.cls) {
        case FlowClass::kLegit:
        case FlowClass::kSpoofedPeer:
          src = pick.v4_of(peer_as, fr);
          dst = pick.v4_of(local_as, fr);
          break;
        case FlowClass::kDpSpoof:
        case FlowClass::kLegacyIn:
          src = pick.v4_of(legacy_as(fr), fr);
          dst = pick.v4_of(local_as, fr);
          break;
        case FlowClass::kPeerOther:
          src = pick.v4_of(peer_as, fr);
          dst = pick.v4_of(legacy_as(fr), fr);
          break;
      }
    }
    while (true) {
      f.packet = make_v4(*src, *dst, fr);
      const bool outbound = f.cls == FlowClass::kLegit || f.cls == FlowClass::kDpSpoof ||
                            f.cls == FlowClass::kPeerOther;
      const Oracle::Out out = outbound ? oracle.outbound(peer_as, f.packet) : Oracle::Out{};
      f.out = out.verdict;
      f.stamped = out.stamped;
      f.in = oracle.inbound(local_as, f.packet, out.stamped ? peer_as : kNoAs);
      // An unstamped packet whose IPID bits happen to equal its mark would
      // verify once and carry a random mark afterwards: redraw its IPID so
      // every pass over the pool sees the same inputs.
      if (f.cls != FlowClass::kSpoofedPeer || f.in != Verdict::kPass) break;
    }
    return f;
  };

  std::vector<Chunk> chunks(kChunks);
  std::array<std::size_t, kClasses> class_pkts{};
  StageCounts per_pass;
  for (Chunk& c : chunks) {
    c.packets.reserve(kChunk);
    c.expect_out.assign(kChunk, Verdict::kPass);
    c.expect_in.assign(kChunk, Verdict::kPass);
    for (std::uint32_t i = 0; i < kChunk; ++i) {
      const Flow& f = make_flow(zipf.draw(rng));
      c.packets.push_back(f.packet);
      c.role.push_back(0);
      ++class_pkts[static_cast<int>(f.cls)];
      const bool out = f.cls == FlowClass::kLegit || f.cls == FlowClass::kDpSpoof ||
                       f.cls == FlowClass::kPeerOther;
      const bool in = f.cls != FlowClass::kDpSpoof && f.cls != FlowClass::kPeerOther;
      c.role.back() = static_cast<std::uint8_t>((out ? 1 : 0) | (in ? 2 : 0));
      if (out) {
        c.out_idx.push_back(i);
        c.expect_out[i] = f.out;
        (f.out == Verdict::kPass ? per_pass.out_passed : per_pass.dp_dropped) += 1;
        per_pass.stamped += f.stamped;
      }
      if (in) {
        c.in_idx.push_back(i);
        c.expect_in[i] = f.in;
        if (f.in != Verdict::kPass) {
          ++per_pass.cdp_dropped;
        } else {
          ++per_pass.in_passed;
          per_pass.verified += f.stamped;
        }
      }
    }
  }
  report.check(per_pass.stamped > 0 && per_pass.dp_dropped > 0 && per_pass.cdp_dropped > 0,
               "paper_stream: the stream does not exercise every verdict");
  const double setup_s = seconds_between(process_start(), Clock::now());
  report.note(fmt("paper_stream: %zu ASes, %zu prefixes, local AS %u (%zu prefixes "
                  "invoked), peer AS %u, %zu shards; pool %zu packets, %zu distinct "
                  "flows of %zu: legit %zu, dp-spoof %zu, peer-other %zu, legacy-in "
                  "%zu, spoofed-peer %zu; IPv4 only",
                  system.dataset().as_count(), system.dataset().prefix_count(), local_as,
                  local.local_prefixes().size() + local.local_prefixes6().size(), peer_as,
                  kShards, kChunks * kChunk, flows.size(), kFlows, class_pkts[0],
                  class_pkts[1], class_pkts[2], class_pkts[3], class_pkts[4]));

  // ---- timed phase: whole passes over the chunk pool ----
  const discs::SimTime now = system.now();
  discs::DataPlaneEngine& out_engine = peer.engine();
  discs::DataPlaneEngine& in_engine = local.engine();
  const discs::RouterStats out0 = out_engine.stats();
  const discs::RouterStats in0 = in_engine.stats();
  std::vector<Verdict> out_v(kChunk), in_v(kChunk);
  double stage_s = 0, serial_s = 0;
  // One window per pass over the pool, so every window holds the same work.
  RateWindows stage_rate(0), serial_rate(0);
  std::uint64_t stage_pkts = 0, serial_pkts = 0, passes = 0, op = 0;
  const auto phase_start = Clock::now();
  while (passes == 0 || seconds_between(phase_start, Clock::now()) < args.seconds) {
    move_to_fastest_cpu();
    const double pass_stage_s = stage_s, pass_serial_s = serial_s;
    const std::uint64_t pass_stage = stage_pkts, pass_serial = serial_pkts;
    for (Chunk& c : chunks) {
      Scoped op_span(tracer, "stream.op", ++op);
      const auto t0 = Clock::now();
      {
        Scoped span(tracer, "engine.out", op, op_span.id());
        out_engine.process_outbound(std::span(c.packets), c.out_idx, out_v, now);
      }
      {
        Scoped span(tracer, "engine.in", op, op_span.id());
        in_engine.process_inbound(std::span(c.packets), c.in_idx, in_v, now);
      }
      const double dt = seconds_between(t0, Clock::now());
      stage_s += dt;
      stage_pkts += c.out_idx.size() + c.in_idx.size();
      bool ok = true;
      for (const std::uint32_t i : c.out_idx) ok = ok && out_v[i] == c.expect_out[i];
      for (const std::uint32_t i : c.in_idx) ok = ok && in_v[i] == c.expect_in[i];
      report.op(ok);

      // The per-packet path on a copy of the chunk's first packets.
      bool serial_ok = true;
      for (std::uint32_t i = 0; i < kSerialSlice; ++i) {
        BatchPacket packet = c.packets[i];
        auto& p = std::get<discs::Ipv4Packet>(packet);
        const bool out = (c.role[i] & 1) != 0;
        const bool in = (c.role[i] & 2) != 0;
        const auto s0 = Clock::now();
        Verdict vo = Verdict::kPass, vi = Verdict::kPass;
        if (out) vo = peer.router().process_outbound(p, now);
        if (in) vi = local.router().process_inbound(p, now);
        const double ds = seconds_between(s0, Clock::now());
        serial_s += ds;
        serial_pkts += out + in;
        serial_ok = serial_ok && (!out || vo == c.expect_out[i]) && (!in || vi == c.expect_in[i]);
      }
      report.op(serial_ok);
    }
    stage_rate.add(static_cast<double>(stage_pkts - pass_stage), stage_s - pass_stage_s);
    serial_rate.add(static_cast<double>(serial_pkts - pass_serial), serial_s - pass_serial_s);
    ++passes;
  }
  const StageCounts seen =
      stage_counts(out0, out_engine.stats(), in0, in_engine.stats());
  StageCounts want;
  want.stamped = per_pass.stamped * passes;
  want.dp_dropped = per_pass.dp_dropped * passes;
  want.out_passed = per_pass.out_passed * passes;
  want.verified = per_pass.verified * passes;
  want.cdp_dropped = per_pass.cdp_dropped * passes;
  want.in_passed = per_pass.in_passed * passes;
  report.check(seen == want, "paper_stream: engine verdict counts differ from the oracle's");
  report.check(seen.verified == seen.stamped, "paper_stream: a stamped packet did not verify");
  report.note(fmt("paper_stream: %llu passes; per pass stamped %llu, dp-dropped %llu, "
                  "out-passed %llu, verified %llu, cdp-dropped %llu, in-passed %llu; "
                  "%llu stage packets in %.3f s",
                  static_cast<unsigned long long>(passes),
                  static_cast<unsigned long long>(per_pass.stamped),
                  static_cast<unsigned long long>(per_pass.dp_dropped),
                  static_cast<unsigned long long>(per_pass.out_passed),
                  static_cast<unsigned long long>(per_pass.verified),
                  static_cast<unsigned long long>(per_pass.cdp_dropped),
                  static_cast<unsigned long long>(per_pass.in_passed),
                  static_cast<unsigned long long>(stage_pkts), stage_s));

  RateWindows ctl_rate;
  rekey_rounds(stepper, controllers, kRekeyBusySeconds, control, ctl_rate, report);

  report.note(fmt("totals: pkts_per_s %.0f serial_pkts_per_s %.0f ctl_ops_per_s %.0f "
                  "(windows %zu, %zu, %zu)",
                  stage_rate.total_rate(), serial_rate.total_rate(), ctl_rate.total_rate(), stage_rate.windows(),
                  serial_rate.windows(), ctl_rate.windows()));
  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("pkts_per_s", stage_rate.rate(), "packets/s");
    report.metric("serial_pkts_per_s", serial_rate.rate(), "packets/s");
    report_control_figures(report, control, ctl_rate);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run ----
  LayerProbe layers(report, tracer);
  layers.setup(setup);
  layers.control(control);
  std::vector<BatchPacket> sample(chunks.front().packets.begin(), chunks.front().packets.end());
  // The facade at this scale, on a slice of the stream sent from the peer.
  constexpr std::size_t kFacadeBatch = 512;
  std::vector<BatchPacket> facade_sample(sample.begin(), sample.begin() + 4 * kFacadeBatch);
  const FacadeCost cost = layers.facade(system, peer_as, facade_sample, kFacadeBatch);
  double batch_s = 0, packet_s = 0;
  std::uint64_t batch_pkts = 0, packet_n = 0;
  const std::uint64_t a0 = alloc_count();
  for (std::size_t b = 0; b < facade_sample.size(); b += kFacadeBatch) {
    discs::PacketBatch batch;
    for (std::size_t i = b; i < b + kFacadeBatch; ++i) batch.add(facade_sample[i]);
    set_alloc_counting(true);
    const auto t0 = Clock::now();
    {
      Scoped span(tracer, "core.send_batch", b);
      (void)system.send_batch(peer_as, batch, now);
    }
    batch_s += seconds_between(t0, Clock::now());
    set_alloc_counting(false);
    batch_pkts += batch.size();
  }
  const std::uint64_t allocs = alloc_count() - a0;
  for (std::size_t i = 0; i < 8; ++i) {
    BatchPacket p = facade_sample[i];
    const auto t0 = Clock::now();
    Scoped span(tracer, "core.send_packet", i);
    (void)std::visit([&](auto& pk) { return system.send_packet(peer_as, pk); }, p);
    packet_s += seconds_between(t0, Clock::now());
    ++packet_n;
  }
  layers.packet_layers(peer, local, sample, now);
  layers.composition(cost, static_cast<double>(allocs) / static_cast<double>(batch_pkts),
                     batch_s / static_cast<double>(batch_pkts),
                     packet_s / static_cast<double>(packet_n));
  layers.codec({local.local_prefixes().front()}, control);
  Tracer off(false);
  std::vector<Verdict> scratch(kChunk);
  layers.overhead(
      [&](bool traced) {
        Chunk& c = chunks[1];
        Scoped span(traced ? tracer : off, "engine.out", 0);
        out_engine.process_outbound(std::span(c.packets), c.out_idx, scratch, now);
      },
      64);
  layers.rebuild_and_rekey(peer, oracle, {by_space[2], by_space[3]}, now);
  layers.finish(args, "paper_stream");
}

}  // namespace perfbench
