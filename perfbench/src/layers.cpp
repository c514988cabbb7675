#include "layers.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <unordered_set>

#include "control/codec.hpp"
#include "dataplane/transaction.hpp"

namespace perfbench {
namespace {

/// Repeats `fn` until at least `min_s` host seconds have gone by; returns
/// seconds per call.
template <typename Fn>
double per_call(Fn&& fn, double min_s = 0.05) {
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

std::vector<std::uint32_t> iota(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

}  // namespace

InvokeStats invoke_each_prefix(LoopStepper& stepper, Oracle& oracle,
                               const std::vector<discs::Controller*>& victims,
                               const std::vector<bool>& reflection, Report& report) {
  InvokeStats stats;
  const std::size_t peers = oracle.dases().size() - 1;
  for (std::size_t k = 0; k < victims.size(); ++k) {
    discs::Controller& c = *victims[k];
    const AsNumber as = c.as_number();
    const bool refl = reflection[k];
    report.check(std::set<Prefix4>(c.local_prefixes().begin(), c.local_prefixes().end()) ==
                         std::set<Prefix4>(oracle.prefixes_of(as).begin(),
                                           oracle.prefixes_of(as).end()) &&
                     std::set<Prefix6>(c.local_prefixes6().begin(), c.local_prefixes6().end()) ==
                         std::set<Prefix6>(oracle.prefixes6_of(as).begin(),
                                           oracle.prefixes6_of(as).end()),
                 "victim prefix lists differ from the dataset's entries");
    const auto one = [&](const auto& prefix) {
      const auto t0 = Clock::now();
      const std::size_t asked =
          stepper.timed([&] { return c.invoke_ddos_defense(prefix, refl); });
      stats.call_s += seconds_between(t0, Clock::now());
      ++stats.calls;
      report.check(asked == peers, "an invocation did not reach every peer");
      stepper.expect_protection(as, prefix, refl);
      oracle.invoke(as, prefix, refl);
      stats.protections += peers;
    };
    for (const Prefix4& p : c.local_prefixes()) one(p);
    for (const Prefix6& p : c.local_prefixes6()) one(p);
  }
  return stats;
}

ControlFigures control_figures(const LoopStepper& stepper, const discs::ConConNetwork& net,
                               const std::vector<discs::Controller*>& controllers,
                               std::size_t peerings, const InvokeStats& invoked,
                               Report& report) {
  ControlFigures f;
  report.check(stepper.open_probes() == 0, "some invoked prefix is not enforced at a peer");
  report.check(stepper.ttp_ms().size() == invoked.protections,
               "time-to-protection samples do not match the protections expected");
  const double floor_ms = static_cast<double>(kChannelLatency + kConRouLatency) / 1000.0;
  report.check(std::all_of(stepper.ttp_ms().begin(), stepper.ttp_ms().end(),
                           [&](double ms) { return ms >= floor_ms; }),
               "a time-to-protection sample is below one channel + con-rou latency");
  f.ttp_ms = stepper.ttp_ms();
  f.ops = static_cast<double>(peerings + invoked.protections);
  for (const discs::Controller* c : controllers) {
    const auto& rs = c->link().stats();
    const auto& cs = c->stats();
    f.ops += static_cast<double>(cs.rekeys_completed);
    f.retransmits += static_cast<double>(rs.retransmits);
    f.delivery_failures += static_cast<double>(rs.delivery_failures);
    f.acks += static_cast<double>(rs.acks_sent);
    f.peering_requests += static_cast<double>(cs.peering_requests_sent);
    f.keys += static_cast<double>(cs.keys_generated);
    f.invocations += static_cast<double>(cs.invocations_sent);
  }
  report.check(f.delivery_failures == 0, "the control plane reported delivery failures");
  f.busy_s = stepper.busy_s();
  f.wire_bytes = static_cast<double>(net.stats().bytes);
  f.msgs = static_cast<double>(net.stats().messages);
  f.handshakes = static_cast<double>(net.stats().handshakes);
  f.invoke_calls = static_cast<double>(invoked.calls);
  f.invoke_s = invoked.call_s;
  f.events = static_cast<double>(stepper.events());
  f.step_s = stepper.step_s();
  return f;
}

void add_figures(ControlFigures& into, const ControlFigures& from) {
  into.ops += from.ops;
  into.busy_s += from.busy_s;
  into.wire_bytes += from.wire_bytes;
  into.ttp_ms.insert(into.ttp_ms.end(), from.ttp_ms.begin(), from.ttp_ms.end());
  into.msgs += from.msgs;
  into.retransmits += from.retransmits;
  into.handshakes += from.handshakes;
  into.delivery_failures += from.delivery_failures;
  into.invoke_calls += from.invoke_calls;
  into.invoke_s += from.invoke_s;
  into.events += from.events;
  into.step_s += from.step_s;
  into.peering_requests += from.peering_requests;
  into.keys += from.keys;
  into.invocations += from.invocations;
  into.acks += from.acks;
}

void rekey_rounds(LoopStepper& stepper, const std::vector<discs::Controller*>& controllers,
                  double busy_s, ControlFigures& figures, RateWindows& windows,
                  Report& report) {
  const auto committed = [&] {
    std::uint64_t n = 0;
    for (const discs::Controller* c : controllers) n += c->stats().rekeys_completed;
    return n;
  };
  const std::uint64_t per_round = controllers.size() * (controllers.size() - 1);
  const std::uint64_t before = committed();
  const double start = stepper.busy_s();
  std::uint64_t rounds = 0;
  double moved_at = -1;
  while (rounds == 0 || stepper.busy_s() - start < busy_s) {
    const double round_start = stepper.busy_s();
    if (round_start - moved_at >= 0.25) {
      move_to_fastest_cpu();
      moved_at = round_start;
    }
    for (discs::Controller* c : controllers) stepper.timed([&] { c->rekey_all_peers(); });
    stepper.run_until(stepper.now() + 5 * discs::kSecond);
    windows.add(static_cast<double>(per_round), stepper.busy_s() - round_start);
    ++rounds;
    report.check(committed() - before == rounds * per_round, "a rekey round did not commit");
  }
  figures.ops += static_cast<double>(committed() - before);
  figures.busy_s += stepper.busy_s() - start;
}

void report_control_figures(Report& report, const ControlFigures& f,
                            const RateWindows& ctl_rate) {
  report.metric("ctl_ops_per_s", ctl_rate.rate(), "ops/s");
  report.metric("ctl_wire_bytes", f.wire_bytes, "bytes");
  report.metric("ttp_p50_ms", quantile(f.ttp_ms, 0.50), "ms");
  report.metric("ttp_p95_ms", quantile(f.ttp_ms, 0.95), "ms");
}

void LayerProbe::setup(const SetupTimes& s) {
  report_.metric("setup.dataset_s", s.dataset_s, "s");
  report_.metric("setup.world_s", s.world_s, "s");
  report_.metric("setup.deploy_s", s.deploy_s, "s");
  report_.metric("setup.peer_s", s.peer_s, "s");
  report_.metric("setup.invoke_s", s.invoke_s, "s");
  report_.metric("setup.rss_mb_per_das", s.rss_mb_per_das, "MB");
}

void LayerProbe::control(const ControlFigures& f) {
  report_.metric("control.msgs", f.msgs, "count");
  report_.metric("control.retransmits", f.retransmits, "count");
  report_.metric("control.handshakes", f.handshakes, "count");
  report_.metric("control.invoke_us", f.invoke_s / std::max(1.0, f.invoke_calls) * 1e6, "us");
  report_.metric("simkit.events", f.events, "count");
  ns("simkit.event_ns", f.step_s / std::max(1.0, f.events));
}

FacadeCost LayerProbe::facade(discs::DiscsSystem& system, AsNumber origin,
                              const std::vector<BatchPacket>& sample, std::size_t batch) {
  FacadeCost cost;
  const discs::InternetDataset& ds = system.dataset();
  std::vector<AsNumber> dst_as(sample.size());
  {
    Scoped span(tracer_, "core.origin_of", 0);
    cost.origin_of_ns = per_call([&] {
      for (std::size_t i = 0; i < sample.size(); ++i) {
        dst_as[i] = std::visit([&](const auto& p) { return ds.origin_of(p.header.dst); },
                               sample[i]);
      }
    }) / static_cast<double>(sample.size()) * 1e9;
  }
  // Distinct destinations per batch: send_batch resolves one path each.
  std::size_t distinct = 0, batches = 0;
  std::set<AsNumber> dests_all;
  for (std::size_t b = 0; b < sample.size(); b += batch, ++batches) {
    std::unordered_set<AsNumber> dests;
    for (std::size_t i = b; i < std::min(sample.size(), b + batch); ++i) {
      if (dst_as[i] != kNoAs) dests.insert(dst_as[i]);
    }
    distinct += dests.size();
    dests_all.insert(dests.begin(), dests.end());
  }
  cost.paths_per_pkt = static_cast<double>(distinct) / static_cast<double>(sample.size());
  std::vector<AsNumber> pair_dst(dests_all.begin(), dests_all.end());
  if (pair_dst.size() > 32) pair_dst.resize(32);
  {
    Scoped span(tracer_, "topology.path", 0);
    cost.path_us = per_call([&] {
      for (const AsNumber d : pair_dst) {
        if (system.graph().path(origin, d).empty()) report_.check(false, "no AS path");
      }
    }) / static_cast<double>(std::max<std::size_t>(1, pair_dst.size())) * 1e6;
  }
  // The two engine stages as send_batch composes them: outbound at the
  // origin DAS, inbound per destination DAS.
  std::vector<BatchPacket> work;
  std::vector<discs::Verdict> verdicts(batch);
  double out_s = 0, in_s = 0;
  std::size_t out_n = 0, in_n = 0;
  for (std::size_t b = 0; b < sample.size(); b += batch) {
    const std::size_t n = std::min(batch, sample.size() - b);
    work.assign(sample.begin() + static_cast<std::ptrdiff_t>(b),
                sample.begin() + static_cast<std::ptrdiff_t>(b + n));
    std::vector<std::uint32_t> out_idx;
    std::map<AsNumber, std::vector<std::uint32_t>> by_dst;
    for (std::uint32_t i = 0; i < n; ++i) {
      const AsNumber d = dst_as[b + i];
      if (d == origin || d == kNoAs) continue;
      out_idx.push_back(i);
      if (system.is_das(d)) by_dst[d].push_back(i);
    }
    if (discs::Controller* src = system.controller(origin)) {
      Scoped span(tracer_, "engine.out", b);
      const auto t0 = Clock::now();
      src->engine().process_outbound(std::span(work), out_idx, verdicts, system.now());
      out_s += seconds_between(t0, Clock::now());
      out_n += out_idx.size();
    }
    for (auto& [d, idx] : by_dst) {
      Scoped span(tracer_, "engine.in", b);
      const auto t0 = Clock::now();
      system.controller(d)->engine().process_inbound(std::span(work), idx, verdicts,
                                                     system.now());
      in_s += seconds_between(t0, Clock::now());
      in_n += idx.size();
    }
  }
  cost.engine_out_ns = out_n == 0 ? 0 : out_s / static_cast<double>(out_n) * 1e9;
  cost.engine_in_ns = in_n == 0 ? 0 : in_s / static_cast<double>(in_n) * 1e9;
  report_.metric("core.origin_of_ns", cost.origin_of_ns, "ns");
  report_.metric("core.path_us", cost.path_us, "us");
  return cost;
}

void LayerProbe::packet_layers(discs::Controller& stamper, discs::Controller& verifier,
                               const std::vector<BatchPacket>& sample, discs::SimTime now) {
  const std::size_t n = sample.size();
  const std::vector<std::uint32_t> idx = iota(n);
  std::vector<discs::Verdict> verdicts(n);
  std::vector<BatchPacket> work;

  // crypto: the marks this run stamps, through the batched CMAC.
  const discs::KeyTable::Entry* key = stamper.tables().key_s.find(verifier.as_number());
  if (key != nullptr) {
    std::vector<discs::CmacWork> macs(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::visit(
          [&](const auto& p) {
            const auto msg = discs::discs_msg(p);
            macs[i].cmac = &key->active_mac;
            macs[i].len = static_cast<std::uint8_t>(msg.size());
            macs[i].bits = msg.size() == 21 ? discs::kIpv4MarkBits : discs::kIpv6MarkBits;
            std::copy(msg.begin(), msg.end(), macs[i].msg.begin());
          },
          sample[i]);
    }
    Scoped span(tracer_, "crypto.cmac", 0);
    ns("crypto.cmac_ns", per_call([&] { discs::mac_truncated_batch(macs); }) /
                             static_cast<double>(n));
  }

  // lpm: compiled Pfx2AS and function-table lookups on the sealed tables.
  const discs::RouterTables& st = stamper.tables();
  const discs::RouterTables& vt = verifier.tables();
  std::uint64_t sink = 0;
  {
    Scoped span(tracer_, "lpm.pfx2as", 0);
    ns("lpm.pfx2as_ns", per_call([&] {
         for (const BatchPacket& p : sample) {
           std::visit([&](const auto& pk) {
             sink += st.pfx2as.lookup(pk.header.src) + st.pfx2as.lookup(pk.header.dst);
           }, p);
         }
       }) / static_cast<double>(2 * n));
  }
  {
    Scoped span(tracer_, "lpm.fn_match", 0);
    ns("lpm.fn_match_ns", per_call([&] {
         for (const BatchPacket& p : sample) {
           std::visit([&](const auto& pk) {
             sink += st.out_src.lookup(pk.header.src, now).functions +
                     st.out_dst.lookup(pk.header.dst, now).functions +
                     vt.in_src.lookup(pk.header.src, now).functions +
                     vt.in_dst.lookup(pk.header.dst, now).functions;
           }, p);
         }
       }) / static_cast<double>(4 * n));
  }
  if (sink == 42) report_.note("");  // keeps the lookups observable

  // router rung: one BorderRouter per side on this thread, batch entry points.
  discs::BorderRouter out_router(st, stamper.as_number(), 7);
  discs::BorderRouter in_router(vt, verifier.as_number(), 9);
  double ro = 0, ri = 0, eo = 0, ei = 0;
  int reps = 0;
  const auto w0 = stamper.engine().worker_stats();
  const auto w1 = verifier.engine().worker_stats();
  const auto t_start = Clock::now();
  do {
    work = sample;
    {
      Scoped span(tracer_, "router.out", reps);
      const auto t0 = Clock::now();
      out_router.process_outbound_batch(std::span(work), idx, verdicts, now);
      ro += seconds_between(t0, Clock::now());
    }
    {
      Scoped span(tracer_, "router.in", reps);
      const auto t0 = Clock::now();
      in_router.process_inbound_batch(std::span(work), idx, verdicts, now);
      ri += seconds_between(t0, Clock::now());
    }
    work = sample;
    {
      Scoped span(tracer_, "engine.out", reps);
      const auto t0 = Clock::now();
      stamper.engine().process_outbound(std::span(work), idx, verdicts, now);
      eo += seconds_between(t0, Clock::now());
    }
    {
      Scoped span(tracer_, "engine.in", reps);
      const auto t0 = Clock::now();
      verifier.engine().process_inbound(std::span(work), idx, verdicts, now);
      ei += seconds_between(t0, Clock::now());
    }
    ++reps;
  } while (seconds_between(t_start, Clock::now()) < 0.5);
  const double pkts = static_cast<double>(n) * reps;
  ns("router.out_ns", ro / pkts);
  ns("router.in_ns", ri / pkts);
  ns("engine.out_ns", eo / pkts);
  ns("engine.in_ns", ei / pkts);
  ns("engine.dispatch_ns", ((eo - ro) + (ei - ri)) / (2 * pkts));
  const auto x0 = stamper.engine().worker_stats();
  const auto x1 = verifier.engine().worker_stats();
  const double kpkt = 2 * pkts / 1000.0;
  report_.metric("engine.parks_per_kpkt",
                 static_cast<double>(x0.parks - w0.parks + x1.parks - w1.parks) / kpkt, "count");
  report_.metric("engine.doorbells_per_kpkt",
                 static_cast<double>(x0.doorbells - w0.doorbells + x1.doorbells - w1.doorbells) /
                     kpkt,
                 "count");
  report_.metric("engine.ring_stalls_per_kpkt",
                 static_cast<double>(x0.ring_full_stalls - w0.ring_full_stalls +
                                     x1.ring_full_stalls - w1.ring_full_stalls) /
                     kpkt,
                 "count");
}

void LayerProbe::composition(const FacadeCost& cost, double allocs_per_pkt,
                             double batch_s_per_pkt, double serial_s_per_pkt) {
  ns("core.send_batch_ns", batch_s_per_pkt);
  report_.metric("core.send_packet_us", serial_s_per_pkt * 1e6, "us");
  const double parts_ns = cost.origin_of_ns + cost.paths_per_pkt * cost.path_us * 1e3 +
                          cost.engine_out_ns + cost.engine_in_ns;
  report_.metric("core.gap_ns", batch_s_per_pkt * 1e9 - parts_ns, "ns");
  report_.metric("core.allocs_per_pkt", allocs_per_pkt, "count");
}

void LayerProbe::rebuild_and_rekey(discs::Controller& at, const Oracle& oracle,
                                   const std::vector<AsNumber>& donors, discs::SimTime now) {
  // One-prefix installs of prefixes the tables do not hold yet: each apply
  // recompiles the touched function table at the size this run reached.
  std::vector<Prefix4> fresh;
  for (const AsNumber as : donors) {
    for (const Prefix4& p : oracle.prefixes_of(as)) {
      if (fresh.size() < 24) fresh.push_back(p);
    }
  }
  double rebuild_s = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    discs::TableTransaction txn;
    txn.install_function(discs::FunctionDirection::kOutDst, discs::AnyPrefix(fresh[i]),
                         discs::DefenseFunction::kDp, discs::kSecond);
    Scoped span(tracer_, "lpm.fn_rebuild", i);
    const auto t0 = Clock::now();
    at.engine().apply(txn, now);
    rebuild_s += seconds_between(t0, Clock::now());
  }
  report_.metric("lpm.fn_rebuild_us",
                 rebuild_s / static_cast<double>(std::max<std::size_t>(1, fresh.size())) * 1e6,
                 "us");
  // Key-only transactions (the shape of a rekey commit) for AS numbers that
  // are no peer of anyone, so the run's real keys stay untouched.
  constexpr int kKeyTxns = 64;
  double key_s = 0;
  for (int i = 0; i < kKeyTxns; ++i) {
    discs::TableTransaction txn;
    txn.set_verify_key(4'200'000'000u + static_cast<AsNumber>(i % 8),
                       discs::derive_key128(static_cast<std::uint64_t>(i)),
                       /*retain_previous=*/true);
    Scoped span(tracer_, "txn.key_apply", static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    at.engine().apply(txn, now);
    key_s += seconds_between(t0, Clock::now());
  }
  report_.metric("txn.key_apply_us", key_s / kKeyTxns * 1e6, "us");
}

void LayerProbe::codec(const std::vector<Prefix4>& prefixes, const ControlFigures& f) {
  discs::InvocationRequest request;
  const discs::InvokableSet fns = discs::invoke_mask(discs::InvokableFunction::kDp) |
                                  discs::invoke_mask(discs::InvokableFunction::kCdp);
  for (const Prefix4& p : prefixes) request.triples.push_back({p, fns, discs::kHour});
  // Message kinds in the run's proportions, scaled to about 2,000 frames.
  const double total = std::max(1.0, 2 * (f.peering_requests + f.keys + f.invocations) + f.acks);
  const auto count = [&](double n) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(2000.0 * n / total));
  };
  std::vector<discs::Envelope> mix;
  const auto add = [&](std::size_t n, const discs::ControlMessage& m) {
    for (std::size_t i = 0; i < n; ++i) {
      mix.push_back({1, 2, m, i + 1, true, std::nullopt});
    }
  };
  add(count(f.peering_requests), discs::PeeringRequest{});
  add(count(f.peering_requests), discs::PeeringAccept{});
  add(count(f.keys), discs::KeyInstall{discs::derive_key128(3), 2, true});
  add(count(f.keys), discs::KeyInstallAck{2});
  add(count(f.invocations), request);
  add(count(f.invocations), discs::InvocationAccept{request.triples.size(), 9});
  add(count(f.acks), discs::DeliveryAck{7});
  std::vector<std::vector<std::uint8_t>> wire(mix.size());
  {
    Scoped span(tracer_, "codec.encode", 0);
    ns("codec.encode_ns", per_call([&] {
         for (std::size_t i = 0; i < mix.size(); ++i) wire[i] = discs::encode_envelope(mix[i]);
       }) / static_cast<double>(mix.size()));
  }
  bool round_trip = true;
  {
    Scoped span(tracer_, "codec.decode", 0);
    ns("codec.decode_ns", per_call([&] {
         for (std::size_t i = 0; i < mix.size(); ++i) {
           const auto e = discs::decode_envelope(wire[i]);
           round_trip = round_trip && e.has_value() && e->message == mix[i].message;
         }
       }) / static_cast<double>(mix.size()));
  }
  report_.check(round_trip, "codec: a frame of the mix did not decode to its message");
}

void LayerProbe::overhead(const std::function<void(bool traced)>& call, int reps) {
  double plain = 0, traced = 0;
  for (int i = 0; i < reps; ++i) {
    for (const bool on : {i % 2 == 0, i % 2 != 0}) {
      const auto t0 = Clock::now();
      call(on);
      (on ? traced : plain) += seconds_between(t0, Clock::now());
    }
  }
  report_.metric("trace.overhead_pct", (traced / plain - 1.0) * 100.0, "%");
}

void LayerProbe::finish(const Args& args, const char* workload) {
  const std::string path = args.out_dir + "/trace_" + workload + "_" +
                           std::to_string(args.seed) + ".json";
  if (!ensure_dir(args.out_dir) || !tracer_.write_chrome_json(path)) {
    report_.note("could not write " + path);
  } else {
    report_.note("spans written to " + path);
  }
}

}  // namespace perfbench
