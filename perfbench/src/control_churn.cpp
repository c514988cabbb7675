// control_churn: the control plane under a lossy con-con channel.
//
// A system world of 2,048 ASes with its 32 largest deployed (single-shard
// engines). The channel drops, duplicates and reorders. The schedule — a
// ScenarioSpec run by ScenarioRunner — peers the full mesh, staggers four
// rekeys, and has four victims invoke all-prefix protection (direct and
// reflection alternately) whose windows expire during the drain. Each round
// builds a fresh world from the same spec and replays it; the benchmark
// steps the EventLoop itself between schedule steps, timing every step and
// protocol call and probing the peers' tables for time-to-protection. At a
// probe point it checks key agreement across every pair and sends probe
// traffic from every DAS through the facade. Rounds must replay identically.
#include <algorithm>
#include <memory>

#include "layers.hpp"
#include "scenario/runner.hpp"

namespace perfbench {
namespace {

namespace sc = discs::scenario;

constexpr std::size_t kAses = 2048;
constexpr std::size_t kPrefixes = 20480;
constexpr std::size_t kDases = 32;
constexpr std::size_t kVictims = 4;
constexpr std::size_t kRekeyers = 4;
constexpr discs::SimTime kPeered = 15 * discs::kSecond;
constexpr discs::SimTime kRekeyAt = 16 * discs::kSecond;
constexpr discs::SimTime kInvokeAt = 20 * discs::kSecond;
constexpr discs::SimTime kWindow = 20 * discs::kSecond;
constexpr discs::SimTime kProbeAt = 30 * discs::kSecond;
constexpr discs::SimTime kDrain = 60 * discs::kSecond;
constexpr std::size_t kProbeBatch = 128;
constexpr std::size_t kProbeSerial = 2;

/// True when a prefix of `a` covers or is covered by a prefix of `b`.
bool overlaps(const Oracle& oracle, AsNumber a, AsNumber b) {
  for (const Prefix4& x : oracle.prefixes_of(a)) {
    for (const Prefix4& y : oracle.prefixes_of(b)) {
      if (x.covers(y) || y.covers(x)) return true;
    }
  }
  return false;
}

struct Victim {
  AsNumber as;
  bool reflection;
};

sc::ScenarioSpec make_spec(std::uint64_t seed, const std::vector<AsNumber>& rekeyers,
                           const std::vector<Victim>& victims) {
  sc::ScenarioSpec spec;
  spec.name = "control_churn";
  spec.seed = seed;
  spec.world = sc::WorldKind::kSystem;
  spec.drain = kDrain;
  spec.channel_latency = kChannelLatency;
  spec.synthetic = {.num_ases = kAses, .num_prefixes = kPrefixes, .seed = 20121011};
  spec.strategy = discs::DeploymentStrategy::kOptimal;
  spec.deploy_count = kDases;
  spec.controller.con_rou_latency = kConRouLatency;
  spec.engine.shards = 1;
  spec.fault.drop_probability = 0.02;
  spec.fault.duplicate_probability = 0.02;
  spec.fault.reorder_window = 10 * discs::kMillisecond;
  spec.fault.latency_jitter = kChannelJitter;
  spec.fault.seed = discs::derive_seed(seed, 0xfa17);
  const auto checkpoint = [&](discs::SimTime at, std::string name) {
    sc::ScheduleStep s;
    s.at = at;
    s.kind = sc::ScheduleStep::Kind::kCheckpoint;
    s.checkpoint = std::move(name);
    spec.schedule.push_back(s);
  };
  checkpoint(kPeered, "peered");
  for (std::size_t i = 0; i < rekeyers.size(); ++i) {
    sc::ScheduleStep s;
    s.at = kRekeyAt + i * discs::kSecond;
    s.kind = sc::ScheduleStep::Kind::kRekey;
    s.as = rekeyers[i];
    spec.schedule.push_back(s);
    checkpoint(s.at, "rekey" + std::to_string(i));
  }
  for (std::size_t i = 0; i < victims.size(); ++i) {
    sc::ScheduleStep s;
    s.at = kInvokeAt + i * discs::kSecond;
    s.kind = sc::ScheduleStep::Kind::kInvoke;
    s.as = victims[i].as;
    s.all_prefixes = true;
    s.spoofed_source = victims[i].reflection;
    s.duration = kWindow;
    spec.schedule.push_back(s);
    checkpoint(s.at, "invoke" + std::to_string(i));
  }
  checkpoint(kProbeAt, "probe");
  spec.checks = {std::string(sc::invariants::kOrphanFreedom),
                 std::string(sc::invariants::kNoDeliveryFailures)};
  return spec;
}

struct ProbeBatch {
  AsNumber origin;
  discs::PacketBatch pristine;
  std::vector<Oracle::Expected> expected;
};

}  // namespace

void run_control_churn(const Args& args, Report& report) {
  Tracer tracer(args.trace);
  SetupTimes setup;
  Rng rng(discs::derive_seed(args.seed, 0xc4c));

  auto t = Clock::now();
  const discs::InternetDataset dataset = discs::generate_dataset(
      {.num_ases = kAses, .num_prefixes = kPrefixes, .seed = 20121011});
  Oracle oracle(dataset);
  setup.dataset_s = seconds_between(t, Clock::now());
  const std::vector<AsNumber> by_space = dataset.ases_by_space_desc();
  const std::vector<AsNumber> dases(by_space.begin(), by_space.begin() + kDases);
  for (const AsNumber as : dases) oracle.add_das(as);

  // Victims in deployment order, alternating direct and reflection; two
  // victims of one kind must not cover each other's prefixes, or one's
  // window would protect the other's prefix before its own invocation.
  std::vector<Victim> victims;
  for (const AsNumber as : dases) {
    if (victims.size() == kVictims) break;
    const bool reflection = victims.size() % 2 == 1;
    const bool clash = std::any_of(victims.begin(), victims.end(), [&](const Victim& v) {
      return v.reflection == reflection && overlaps(oracle, v.as, as);
    });
    if (!clash) victims.push_back({as, reflection});
  }
  std::vector<AsNumber> rekeyers;
  for (auto it = dases.rbegin(); rekeyers.size() < kRekeyers; ++it) rekeyers.push_back(*it);
  std::size_t protections = 0;
  for (const Victim& v : victims) {
    oracle.invoke_all(v.as, v.reflection);
    protections += (oracle.prefixes_of(v.as).size() + oracle.prefixes6_of(v.as).size()) *
                   (kDases - 1);
  }
  const sc::ScenarioSpec spec = make_spec(args.seed, rekeyers, victims);
  report.note(fmt("control_churn: scenario_hash %016llx, %zu DASes, victims %u %u %u %u, "
                  "%zu protections per round",
                  static_cast<unsigned long long>(sc::scenario_hash(spec)), kDases,
                  victims[0].as, victims[1].as, victims[2].as, victims[3].as, protections));
  if (args.trace && ensure_dir(args.out_dir)) {
    sc::save_scenario(spec, args.out_dir + "/control_churn_" + std::to_string(args.seed) + ".scn");
  }

  // Probe traffic: from every DAS, a batch toward the victims and others.
  AddressPicker pick(oracle);
  std::vector<ProbeBatch> probes;
  for (const AsNumber origin : dases) {
    ProbeBatch b{origin, {}, {}};
    while (b.pristine.size() < kProbeBatch) {
      const Victim& v = victims[rng.below(victims.size())];
      const AsNumber dst_as = rng.below(4) == 0 ? by_space[kDases + rng.below(256)] : v.as;
      const std::uint64_t roll = rng.below(100);
      const AsNumber src_as = roll < 70   ? origin
                              : roll < 85 ? victims[1].as
                                          : by_space[rng.below(kDases + 256)];
      if (dst_as == origin) continue;
      if (rng.below(10) == 0) {
        const auto s = pick.v6_of(src_as, rng);
        const auto d = pick.v6_of(dst_as, rng);
        if (s && d) b.pristine.add(make_v6(*s, *d, rng));
      } else {
        const auto s = pick.v4_of(src_as, rng);
        const auto d = pick.v4_of(dst_as, rng);
        if (s && d) b.pristine.add(make_v4(*s, *d, rng));
      }
    }
    probes.push_back(std::move(b));
  }

  // ---- rounds: build a fresh world from the spec, replay it, check it ----
  std::unique_ptr<sc::ScenarioRunner> runner;
  ControlFigures total;
  double setup_s = 0, batch_s = 0, serial_s = 0, round_wire_bytes = 0;
  // One window per round: every round replays the same schedule.
  RateWindows batch_rate(0), serial_rate(0), ctl_rate(0);
  std::uint64_t batch_pkts = 0, serial_pkts = 0, allocs = 0, rounds = 0;
  std::string first_outcome;
  double build_s = 0;
  const auto phase_start = Clock::now();
  while (rounds == 0 || seconds_between(phase_start, Clock::now()) < args.seconds) {
    Report round;
    const double round_batch_s = batch_s, round_serial_s = serial_s;
    const std::uint64_t round_batch = batch_pkts, round_serial = serial_pkts;
    runner.reset();
    const double rss0 = current_rss_mb();
    t = Clock::now();
    runner = std::make_unique<sc::ScenarioRunner>(spec);
    runner->build();
    build_s = seconds_between(t, Clock::now());
    if (rounds == 0) setup.rss_mb_per_das = (current_rss_mb() - rss0) / kDases;
    discs::DiscsSystem& system = *runner->system();
    const std::vector<discs::Controller*> controllers = runner->controllers();
    round.check(controllers.size() == kDases, "control_churn: deployment size");
    if (rounds == 0) {
      setup.deploy_s = build_s;  // the world is its 32 deploys
      setup_s = seconds_between(process_start(), Clock::now());
    }
    move_to_fastest_cpu();
    LoopStepper stepper(runner->loop(), controllers);
    InvokeStats invoked;
    // Steps the loop up to `at`, then lets the runner execute the schedule
    // step there; returns the host time of that step alone.
    const auto step_to = [&](discs::SimTime at, const std::string& name) {
      stepper.run_until(at);
      const auto t0 = Clock::now();
      stepper.timed([&] { return runner->run_to_checkpoint(name); });
      return seconds_between(t0, Clock::now());
    };
    step_to(kPeered, "peered");
    if (rounds == 0) setup.peer_s = stepper.busy_s();
    round.check(full_mesh(controllers), "control_churn: the mesh did not form");
    for (std::size_t i = 0; i < rekeyers.size(); ++i) {
      step_to(kRekeyAt + i * discs::kSecond, "rekey" + std::to_string(i));
    }
    for (std::size_t i = 0; i < victims.size(); ++i) {
      invoked.call_s += step_to(kInvokeAt + i * discs::kSecond, "invoke" + std::to_string(i));
      ++invoked.calls;
      const discs::Controller& c = *runner->controller(victims[i].as);
      for (const Prefix4& p : c.local_prefixes()) {
        stepper.expect_protection(victims[i].as, p, victims[i].reflection);
      }
      for (const Prefix6& p : c.local_prefixes6()) {
        stepper.expect_protection(victims[i].as, p, victims[i].reflection);
      }
    }
    invoked.protections = protections;
    const double before_probe = stepper.busy_s();
    step_to(kProbeAt, "probe");
    if (rounds == 0) setup.invoke_s = invoked.call_s + stepper.busy_s() - before_probe;

    // Probe point: every rekey committed, keys agree on every pair, and the
    // facade carries probe traffic exactly as the oracle predicts.
    std::uint64_t rekeys = 0;
    for (const discs::Controller* c : controllers) rekeys += c->stats().rekeys_completed;
    round.check(rekeys == kRekeyers * (kDases - 1), "control_churn: rekeys did not commit");
    round.check(key_mismatches(controllers, oracle, rng) == 0,
                "control_churn: a stamped packet does not verify across a pair");
    if (rounds == 0) {
      oracle.set_keys(world_keys([&](AsNumber as) { return runner->controller(as); }));
      for (ProbeBatch& b : probes) {
        for (const BatchPacket& p : b.pristine) b.expected.push_back(oracle.send(b.origin, p));
      }
      oracle.set_keys({});
    }
    move_to_fastest_cpu();
    for (const ProbeBatch& b : probes) {
      Scoped op_span(tracer, "churn.probe", rounds);
      discs::PacketBatch work = b.pristine;
      const std::uint64_t a0 = alloc_count();
      set_alloc_counting(args.trace);
      const auto t0 = Clock::now();
      std::vector<discs::DeliveryResult> results;
      {
        Scoped span(tracer, "core.send_batch", rounds, op_span.id());
        results = system.send_batch(b.origin, work);
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
      for (std::size_t i = 0; i < kProbeSerial; ++i) {
        BatchPacket packet = b.pristine[i];
        const auto s0 = Clock::now();
        discs::DeliveryResult r;
        {
          Scoped span(tracer, "core.send_packet", rounds, op_span.id());
          r = std::visit([&](auto& p) { return system.send_packet(b.origin, p); }, packet);
        }
        const double ds = seconds_between(s0, Clock::now());
        serial_s += ds;
        ++serial_pkts;
        ok = ok && outcome_matches(r, b.expected[i], b.origin,
                                   oracle.origin_of_packet_dst(b.pristine[i]));
      }
      round.check(ok, "control_churn: probe traffic differs from the oracle");
    }

    // Drain: windows expire and are swept; the outcome must replay exactly.
    const sc::ScenarioOutcome& outcome = stepper.timed([&]() -> const sc::ScenarioOutcome& {
      return runner->run();
    });
    round.check(outcome.residual_windows == 0, "control_churn: windows survived the drain");
    round.check(outcome.reliability.delivery_failures == 0,
                "control_churn: delivery failures");
    const ControlFigures f = control_figures(stepper, runner->net(), controllers,
                                             kDases * (kDases - 1) / 2, invoked, round);
    if (rounds == 0) first_outcome = outcome.to_string();
    round.check(outcome.to_string() == first_outcome,
                "control_churn: a round did not replay the first one exactly");
    round_wire_bytes = f.wire_bytes;
    ctl_rate.add(f.ops, f.busy_s);
    batch_rate.add(static_cast<double>(batch_pkts - round_batch), batch_s - round_batch_s);
    serial_rate.add(static_cast<double>(serial_pkts - round_serial), serial_s - round_serial_s);
    add_figures(total, f);
    report.op(round.correct());
    ++rounds;
  }
  report.note(fmt("control_churn: %llu rounds, %.0f protocol operations in %.3f s of "
                  "replay, %zu TTP samples, %.0f retransmits, world build %.3f s",
                  static_cast<unsigned long long>(rounds), total.ops, total.busy_s,
                  total.ttp_ms.size(), total.retransmits, build_s));

  report.note(fmt("totals: pkts_per_s %.0f serial_pkts_per_s %.0f ctl_ops_per_s %.0f "
                  "(windows %zu, %zu, %zu)",
                  batch_rate.total_rate(), serial_rate.total_rate(), ctl_rate.total_rate(), batch_rate.windows(),
                  serial_rate.windows(), ctl_rate.windows()));
  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("pkts_per_s", batch_rate.rate(), "packets/s");
    report.metric("serial_pkts_per_s", serial_rate.rate(), "packets/s");
    ControlFigures per_round = total;
    per_round.wire_bytes = round_wire_bytes;
    report_control_figures(report, per_round, ctl_rate);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run, on a fresh world stopped at the probe point ----
  runner = std::make_unique<sc::ScenarioRunner>(spec);
  runner->run_to_checkpoint("probe");
  discs::DiscsSystem& system = *runner->system();
  LayerProbe layers(report, tracer);
  layers.setup(setup);
  ControlFigures per_round = total;
  per_round.msgs /= static_cast<double>(rounds);
  per_round.retransmits /= static_cast<double>(rounds);
  per_round.handshakes /= static_cast<double>(rounds);
  per_round.events /= static_cast<double>(rounds);
  layers.control(per_round);
  std::vector<BatchPacket> sample;
  for (const ProbeBatch& b : probes) {
    for (const BatchPacket& p : b.pristine) sample.push_back(p);
  }
  discs::Controller& stamper = *runner->controller(dases.back());
  discs::Controller& verifier = *runner->controller(victims[0].as);
  const discs::SimTime now = system.now();
  const FacadeCost cost = layers.facade(system, stamper.as_number(), sample, kProbeBatch);
  layers.packet_layers(stamper, verifier, sample, now);
  layers.composition(cost, static_cast<double>(allocs) / static_cast<double>(batch_pkts),
                     batch_s / static_cast<double>(batch_pkts),
                     serial_s / static_cast<double>(serial_pkts));
  layers.codec(runner->controller(victims[0].as)->local_prefixes(), total);
  Tracer off(false);
  layers.overhead(
      [&](bool traced) {
        discs::PacketBatch work = probes.front().pristine;
        Scoped span(traced ? tracer : off, "core.send_batch", 0);
        (void)system.send_batch(probes.front().origin, work);
      },
      64);
  layers.rebuild_and_rekey(stamper, oracle, {by_space[kDases], by_space[kDases + 1]}, now);
  layers.finish(args, "control_churn");
}

}  // namespace perfbench
