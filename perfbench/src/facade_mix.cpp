// facade_mix: the DiscsSystem facade under a mixed traffic load.
//
// A 2,048-AS synthetic internet with its 16 largest ASes deployed (one
// engine shard each). Two victims invoke defense prefix by prefix: one
// direct (DP+CDP), one reflection (SP+CSP). Pre-generated 512-packet
// batches from one origin each go through send_batch, and the first
// kSerialSlice packets of every batch also go through send_packet. The mix
// holds legitimate DAS traffic (stamped and verified), spoofed floods from
// legacy agents and spoofed packets from agents inside DASes, so DP, CDP, SP
// and CSP all act. Every packet's outcome is checked against the oracle.
#include <cstdio>

#include "layers.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kAses = 2048;
constexpr std::size_t kPrefixes = 20480;
constexpr std::size_t kDases = 16;
constexpr std::size_t kBatches = 64;
constexpr std::size_t kBatchSize = 512;
constexpr std::size_t kSerialSlice = 8;
constexpr std::size_t kDestsPerBatch = 8;

struct Batch {
  AsNumber origin = kNoAs;
  discs::PacketBatch pristine;
  std::vector<Oracle::Expected> expected;
};

struct Mix {
  std::size_t legit = 0, insider_spoof = 0, legacy_spoof = 0, legacy_legit = 0, v6 = 0;
  std::size_t delivered = 0, dropped_src = 0, dropped_dst = 0, unroutable = 0;
};

/// Builds the batches: which origin sends, to which few destinations, with
/// which claimed sources. Only the benchmark's generator is used.
std::vector<Batch> make_batches(const Oracle& oracle, const std::vector<AsNumber>& dases,
                                AsNumber direct_victim, AsNumber reflection_victim,
                                const std::vector<AsNumber>& legacy, Rng& rng, Mix& mix) {
  AddressPicker pick(oracle);
  std::vector<Batch> batches(kBatches);
  const auto any_as = [&]() {
    return rng.below(2) == 0 ? dases[rng.below(dases.size())]
                             : legacy[rng.below(legacy.size())];
  };
  for (std::size_t b = 0; b < kBatches; ++b) {
    Batch& batch = batches[b];
    // Batches 0/1 come from the two victims; then DAS and legacy origins.
    const bool das_origin = b < 2 || b % 8 < 3;
    batch.origin = b == 0   ? direct_victim
                   : b == 1 ? reflection_victim
                   : das_origin ? dases[rng.below(dases.size())]
                                : legacy[rng.below(legacy.size())];
    std::vector<AsNumber> dests = {direct_victim};
    while (dests.size() < kDestsPerBatch) {
      const AsNumber d = dests.size() < 3 ? dases[rng.below(dases.size())] : any_as();
      if (d != batch.origin) dests.push_back(d);
    }
    batch.pristine.reserve(kBatchSize);
    while (batch.pristine.size() < kBatchSize) {
      const AsNumber dst_as = dests[rng.below(dests.size())];
      AsNumber src_as = batch.origin;
      const std::uint64_t roll = rng.below(100);
      if (das_origin) {
        // Insiders spoof the reflection victim (SP) or anyone (DP at V1).
        if (roll >= 70) src_as = roll < 85 ? reflection_victim : any_as();
      } else if (roll >= 40) {
        // Legacy floods: the reflection victim's sources, or a DAS's.
        src_as = roll < 70 ? reflection_victim : dases[rng.below(dases.size())];
      }
      const bool v6 = rng.below(10) == 0;
      BatchPacket packet;
      if (v6) {
        const auto s = pick.v6_of(src_as, rng);
        const auto d = pick.v6_of(dst_as, rng);
        if (!s || !d) continue;
        packet = make_v6(*s, *d, rng);
      } else {
        const auto s = pick.v4_of(src_as, rng);
        const auto d = pick.v4_of(dst_as, rng);
        if (!s || !d) continue;
        packet = make_v4(*s, *d, rng);
      }
      mix.v6 += v6;
      if (src_as == batch.origin) {
        (das_origin ? mix.legit : mix.legacy_legit) += 1;
      } else {
        (das_origin ? mix.insider_spoof : mix.legacy_spoof) += 1;
      }
      batch.pristine.add(std::move(packet));
    }
  }
  return batches;
}

}  // namespace

void run_facade_mix(const Args& args, Report& report) {
  check_cmac_known_answers(report);
  Tracer tracer(args.trace);
  SetupTimes setup;
  Rng rng(discs::derive_seed(args.seed, 0xfacade));

  // ---- set-up: dataset, world, deploys, peering, invocation ----
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
  cfg.controller.engine.shards = 1;
  discs::DiscsSystem system(std::move(dataset), cfg);
  Oracle oracle(system.dataset());
  setup.world_s = seconds_between(t, Clock::now());

  t = Clock::now();
  const double rss0 = current_rss_mb();
  const std::vector<AsNumber> by_space = system.dataset().ases_by_space_desc();
  std::vector<AsNumber> dases(by_space.begin(), by_space.begin() + kDases);
  std::vector<discs::Controller*> controllers;
  for (const AsNumber as : dases) {
    controllers.push_back(&system.deploy(as));
    oracle.add_das(as);
  }
  setup.deploy_s = seconds_between(t, Clock::now());
  setup.rss_mb_per_das = (current_rss_mb() - rss0) / kDases;

  t = Clock::now();
  LoopStepper stepper(system.loop(), controllers);
  stepper.run_until(system.now() + kPeeringSettle);
  report.check(full_mesh(controllers), "facade_mix: DASes did not peer in a full mesh");
  setup.peer_s = seconds_between(t, Clock::now());

  t = Clock::now();
  const AsNumber direct_victim = dases[0];
  const AsNumber reflection_victim = dases[1];
  const InvokeStats invoked =
      invoke_each_prefix(stepper, oracle, {system.controller(direct_victim),
                                          system.controller(reflection_victim)},
                         {false, true}, report);
  stepper.run_until(system.now() + kInvokeSettle);
  setup.invoke_s = seconds_between(t, Clock::now());
  ControlFigures control = control_figures(
      stepper, system.channel(), controllers, kDases * (kDases - 1) / 2, invoked, report);

  oracle.set_keys(world_keys([&](AsNumber as) { return system.controller(as); }));
  report.check(key_mismatches(controllers, oracle, rng) == 0,
               "facade_mix: stamping and verification keys disagree");

  std::vector<AsNumber> legacy;
  for (std::size_t i = kDases; i < by_space.size() && legacy.size() < 512; ++i) {
    legacy.push_back(by_space[i]);
  }
  Mix mix;
  std::vector<Batch> batches =
      make_batches(oracle, dases, direct_victim, reflection_victim, legacy, rng, mix);
  for (Batch& b : batches) {
    b.expected.reserve(b.pristine.size());
    for (const BatchPacket& p : b.pristine) {
      b.expected.push_back(oracle.send(b.origin, p));
      switch (b.expected.back().outcome) {
        case DeliveryOutcome::kDelivered: ++mix.delivered; break;
        case DeliveryOutcome::kDroppedAtSource: ++mix.dropped_src; break;
        case DeliveryOutcome::kDroppedAtDestination: ++mix.dropped_dst; break;
        case DeliveryOutcome::kUnroutable: ++mix.unroutable; break;
      }
    }
  }
  report.check(mix.dropped_src > 0 && mix.dropped_dst > 0 && mix.delivered > 0,
               "facade_mix: the mix does not exercise every outcome");
  const double setup_s = seconds_between(process_start(), Clock::now());
  report.note(fmt("facade_mix: %zu DASes, victims %u (direct) %u (reflection); "
                  "per pool pass %zu packets: legit %zu, insider-spoofed %zu, "
                  "legacy %zu, legacy-spoofed %zu, ipv6 %zu; expected delivered %zu, "
                  "dropped at source %zu, at destination %zu, unroutable %zu",
                  kDases, direct_victim, reflection_victim, kBatches * kBatchSize,
                  mix.legit, mix.insider_spoof, mix.legacy_legit, mix.legacy_spoof,
                  mix.v6, mix.delivered, mix.dropped_src, mix.dropped_dst,
                  mix.unroutable));

  // ---- timed phase: whole passes over the batch pool ----
  const discs::SimTime now = system.now();
  double batch_s = 0, serial_s = 0;
  // One window per pass over the pool, so every window holds the same work.
  RateWindows batch_rate(0), serial_rate(0);
  std::uint64_t batch_pkts = 0, serial_pkts = 0, allocs = 0, rounds = 0;
  const auto phase_start = Clock::now();
  discs::PacketBatch work;
  std::uint64_t op = 0;
  while (rounds == 0 || seconds_between(phase_start, Clock::now()) < args.seconds) {
    move_to_fastest_cpu();
    const double pass_batch_s = batch_s, pass_serial_s = serial_s;
    const std::uint64_t pass_batch = batch_pkts, pass_serial = serial_pkts;
    for (const Batch& b : batches) {
      Scoped op_span(tracer, "facade.op", ++op);
      work = b.pristine;
      const std::uint64_t a0 = alloc_count();
      set_alloc_counting(args.trace);
      const auto t0 = Clock::now();
      std::vector<discs::DeliveryResult> results;
      {
        Scoped span(tracer, "core.send_batch", op, op_span.id());
        results = system.send_batch(b.origin, work, now);
      }
      const double dt = seconds_between(t0, Clock::now());
      batch_s += dt;
      set_alloc_counting(false);
      allocs += alloc_count() - a0;
      batch_pkts += work.size();
      bool ok = results.size() == b.expected.size();
      for (std::size_t i = 0; ok && i < results.size(); ++i) {
        ok = outcome_matches(results[i], b.expected[i], b.origin,
                     oracle.origin_of_packet_dst(b.pristine[i]));
      }
      report.op(ok);

      bool serial_ok = true;
      for (std::size_t i = 0; i < kSerialSlice; ++i) {
        BatchPacket packet = b.pristine[i];
        const auto s0 = Clock::now();
        discs::DeliveryResult r;
        {
          Scoped span(tracer, "core.send_packet", op, op_span.id());
          r = std::visit([&](auto& p) { return system.send_packet(b.origin, p); }, packet);
        }
        const double ds = seconds_between(s0, Clock::now());
        serial_s += ds;
        ++serial_pkts;
        serial_ok = serial_ok && outcome_matches(r, b.expected[i], b.origin,
                                         oracle.origin_of_packet_dst(b.pristine[i]));
      }
      report.op(serial_ok);
    }
    batch_rate.add(static_cast<double>(batch_pkts - pass_batch), batch_s - pass_batch_s);
    serial_rate.add(static_cast<double>(serial_pkts - pass_serial), serial_s - pass_serial_s);
    ++rounds;
  }
  report.note(fmt("facade_mix: %llu passes, %llu batch packets in %.3f s, "
                  "%llu serial packets in %.3f s",
                  static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(batch_pkts), batch_s,
                  static_cast<unsigned long long>(serial_pkts), serial_s));

  RateWindows ctl_rate;
  rekey_rounds(stepper, controllers, kRekeyBusySeconds, control, ctl_rate, report);

  report.note(fmt("totals: pkts_per_s %.0f serial_pkts_per_s %.0f ctl_ops_per_s %.0f "
                  "(windows %zu, %zu, %zu)",
                  batch_rate.total_rate(), serial_rate.total_rate(), ctl_rate.total_rate(), batch_rate.windows(),
                  serial_rate.windows(), ctl_rate.windows()));
  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("pkts_per_s", batch_rate.rate(), "packets/s");
    report.metric("serial_pkts_per_s", serial_rate.rate(), "packets/s");
    report_control_figures(report, control, ctl_rate);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: per-layer figures on this workload's own inputs ----
  LayerProbe layers(report, tracer);
  layers.setup(setup);
  layers.control(control);
  std::vector<BatchPacket> sample;
  for (const Batch& b : batches) {
    for (const BatchPacket& p : b.pristine) sample.push_back(p);
  }
  discs::Controller& stamper = *system.controller(dases[2]);
  discs::Controller& verifier = *system.controller(direct_victim);
  const FacadeCost cost = layers.facade(system, stamper.as_number(), sample, kBatchSize);
  layers.packet_layers(stamper, verifier, sample, now);
  layers.composition(cost, static_cast<double>(allocs) / static_cast<double>(batch_pkts),
                     batch_s / static_cast<double>(batch_pkts),
                     serial_s / static_cast<double>(serial_pkts));
  layers.codec({verifier.local_prefixes().front()}, control);
  Tracer off(false);
  layers.overhead(
      [&](bool traced) {
        work = batches.front().pristine;
        Scoped span(traced ? tracer : off, "core.send_batch", 0);
        (void)system.send_batch(batches.front().origin, work, now);
      },
      64);
  layers.rebuild_and_rekey(*system.controller(dases.back()), oracle,
                           {legacy[0], legacy[1], legacy[2]}, now);
  layers.finish(args, "facade_mix");
}

}  // namespace perfbench
