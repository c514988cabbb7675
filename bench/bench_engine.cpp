// Throughput harness for the run-to-completion batch engine: serial
// BorderRouter vs DataPlaneEngine (persistent SPSC-fed workers) on a
// stamp-heavy outbound workload and a verify-heavy inbound workload (both
// AES-CMAC-bound, the §VI-C.2 hot path). Prints packets/sec plus speedup
// over the serial path; the recorded run lives in results/bench_engine.json.
// Also measures the cost of leaving the telemetry instrumentation enabled
// on the hot path (the ISSUE 5 acceptance bar: within 2% of the
// uninstrumented rate).
//
// Honesty rules:
//  * the worker sweep is clamped to the host's core count — worker counts
//    that could only measure oversubscription are skipped and recorded in
//    the `skipped_worker_counts` label;
//  * with --smoke the run doubles as a CI gate: it FAILS when the
//    single-worker bypass drops below 0.9x the serial path, so the w1
//    speedup can never regress silently.
//
// Flags: [--smoke] [--trace FILE] [--metrics FILE] [OUTPUT.json]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "control/codec.hpp"
#include "control/reliable.hpp"
#include "control/secure_channel.hpp"
#include "dataplane/engine.hpp"
#include "telemetry/span.hpp"

namespace discs {
namespace {

constexpr AsNumber kPeerAs = 100;
constexpr AsNumber kLocalAs = 200;

/// The --smoke gate: minimum acceptable engine_w1_speedup (outbound).
constexpr double kSmokeW1SpeedupFloor = 0.9;

// Shrunk by --smoke so the CI leg finishes in seconds.
std::size_t g_packets = 1 << 17;  // per timed repetition
int g_reps = 3;

struct Workload {
  RouterTables local;   // tables of the AS under test
  RouterTables peer;    // mints stamped traffic for the inbound workload
  std::vector<BatchPacket> outbound;  // egress: gets stamped
  std::vector<BatchPacket> inbound;   // ingress: gets verified

  Workload() {
    Xoshiro256 rng(2015);
    // A realistically fragmented Pfx2AS: 1024 sub-prefixes of the two /8s
    // plus covering routes, so lookups walk deep into the trie.
    auto fill = [&](Pfx2AsTable& t) {
      t.add(*Prefix4::parse("10.0.0.0/8"), kPeerAs);
      t.add(*Prefix4::parse("20.0.0.0/8"), kLocalAs);
      for (int i = 0; i < 1024; ++i) {
        const auto sub = static_cast<std::uint32_t>(rng.below(1 << 16)) << 8;
        t.add(Prefix4(Ipv4Address(0x0a000000u | sub), 24), kPeerAs);
        t.add(Prefix4(Ipv4Address(0x14000000u | sub), 24), kLocalAs);
      }
    };
    fill(local.pfx2as);
    fill(peer.pfx2as);

    const Key128 k_pl = derive_key128(1), k_lp = derive_key128(2);
    peer.key_s.set_key(kLocalAs, k_pl);
    local.key_v.set_key(kPeerAs, k_pl);
    local.key_s.set_key(kPeerAs, k_lp);
    peer.key_v.set_key(kLocalAs, k_lp);

    peer.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    local.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpVerify, 0, kHour);
    local.out_dst.install(*Prefix4::parse("10.0.0.0/8"),
                          DefenseFunction::kCdpStamp, 0, kHour);

    BorderRouter stamper(peer, kPeerAs, 7);
    outbound.reserve(g_packets);
    inbound.reserve(g_packets);
    for (std::size_t i = 0; i < g_packets; ++i) {
      const auto suffix = static_cast<std::uint32_t>(rng.next()) & 0xffffff;
      const auto suffix2 = static_cast<std::uint32_t>(rng.next()) & 0xffffff;
      outbound.emplace_back(Ipv4Packet::make(
          Ipv4Address(0x14000000u | suffix), Ipv4Address(0x0a000000u | suffix2),
          IpProto::kUdp, std::vector<std::uint8_t>(16)));
      Ipv4Packet in = Ipv4Packet::make(Ipv4Address(0x0a000000u | suffix),
                                       Ipv4Address(0x14000000u | suffix2),
                                       IpProto::kUdp,
                                       std::vector<std::uint8_t>(16));
      (void)stamper.process_outbound(in, kMinute);
      inbound.emplace_back(std::move(in));
    }
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Worker counts the sweep may honestly run on this host: clamped to the
/// available cores (oversubscribed counts measure scheduler churn, not the
/// engine). The w1 bypass always runs.
std::vector<std::size_t> swept_worker_counts() {
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts;
  for (const std::size_t w : {1u, 2u, 4u, 8u}) {
    if (w <= cores) counts.push_back(w);
  }
  return counts;
}

std::string skipped_worker_counts_label() {
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  std::string skipped;
  for (const std::size_t w : {1u, 2u, 4u, 8u}) {
    if (w > cores) {
      if (!skipped.empty()) skipped += ",";
      skipped += std::to_string(w);
    }
  }
  return skipped.empty() ? "none" : skipped;
}

/// Packets/sec for the serial single-router path.
double run_serial(Workload& w, bool outbound) {
  double best = 0;
  for (int rep = 0; rep < g_reps; ++rep) {
    std::vector<BatchPacket> packets = outbound ? w.outbound : w.inbound;
    BorderRouter router(w.local, kLocalAs, 3);
    const auto t0 = std::chrono::steady_clock::now();
    for (BatchPacket& packet : packets) {
      std::visit(
          [&](auto& p) {
            if (outbound) {
              (void)router.process_outbound(p, kMinute);
            } else {
              (void)router.process_inbound(p, kMinute);
            }
          },
          packet);
    }
    best = std::max(best, g_packets / seconds_since(t0));
  }
  return best;
}

/// One timed batched pass through an existing engine, packets/sec.
double run_batch_once(DataPlaneEngine& engine, const std::vector<BatchPacket>& src,
                      bool outbound) {
  PacketBatch batch;
  batch.reserve(src.size());
  for (const BatchPacket& p : src) batch.add(BatchPacket(p));
  const auto t0 = std::chrono::steady_clock::now();
  if (outbound) {
    (void)engine.process_outbound(batch, kMinute);
  } else {
    (void)engine.process_inbound(batch, kMinute);
  }
  return static_cast<double>(src.size()) / seconds_since(t0);
}

/// Packets/sec for the persistent-worker engine at `workers` shards.
double run_engine(Workload& w, bool outbound, std::size_t workers) {
  EngineConfig config;
  config.shards = workers;
  DataPlaneEngine engine(w.local, kLocalAs, config);
  double best = 0;
  for (int rep = 0; rep < g_reps; ++rep) {
    best = std::max(
        best, run_batch_once(engine, outbound ? w.outbound : w.inbound,
                             outbound));
  }
  return best;
}

/// Returns the w1 speedup so main() can apply the smoke gate.
double sweep(Workload& w, bool outbound, bench::JsonWriter& json) {
  const char* section = outbound ? "outbound" : "inbound";
  bench::header(outbound ? "outbound (stamp-heavy), packets/sec"
                         : "inbound (verify-heavy), packets/sec");
  const double serial = run_serial(w, outbound);
  std::printf("  %-28s %12.0f pkt/s   speedup %5.2fx\n", "serial BorderRouter",
              serial, 1.0);
  json.metric(section, "serial_pkts_per_sec", serial);
  double w1_speedup = 0;
  for (const std::size_t workers : swept_worker_counts()) {
    const double rate = run_engine(w, outbound, workers);
    std::printf("  %-25s %2zu %12.0f pkt/s   speedup %5.2fx\n",
                "engine, workers =", workers, rate, rate / serial);
    json.metric(section,
                "engine_w" + std::to_string(workers) + "_pkts_per_sec", rate);
    json.metric(section, "engine_w" + std::to_string(workers) + "_speedup",
                rate / serial);
    if (workers == 1) w1_speedup = rate / serial;
  }
  return w1_speedup;
}

/// Exercises the SPSC/doorbell protocol at the widest honest worker count
/// and reports its counters (parks, wakeups, notify syscalls, ring-full
/// stalls, dispatched chunks) — the observability face of the rework. On a
/// single-core host the bypass takes over and every counter stays zero.
void worker_protocol(Workload& w, bench::JsonWriter& json) {
  const std::vector<std::size_t> counts = swept_worker_counts();
  const std::size_t workers = counts.back();
  bench::header("worker protocol (SPSC rings + doorbell/park), workers = " +
                std::to_string(workers));
  EngineConfig config;
  config.shards = workers;
  DataPlaneEngine engine(w.local, kLocalAs, config);
  for (int rep = 0; rep < std::max(g_reps, 2); ++rep) {
    (void)run_batch_once(engine, w.outbound, /*outbound=*/true);
  }
  const DataPlaneEngine::WorkerStats stats = engine.worker_stats();
  std::printf("  chunks dispatched %8llu   ring-full stalls %8llu\n",
              static_cast<unsigned long long>(stats.chunks),
              static_cast<unsigned long long>(stats.ring_full_stalls));
  std::printf("  worker parks      %8llu   doorbell wakeups %8llu   "
              "notify syscalls %8llu\n",
              static_cast<unsigned long long>(stats.parks),
              static_cast<unsigned long long>(stats.wakeups),
              static_cast<unsigned long long>(stats.doorbells));
  std::printf("  autotuned chunk   %8zu packet indices\n",
              engine.chunk_hint());
  json.metric("worker_protocol", "workers", static_cast<double>(workers));
  json.metric("worker_protocol", "chunks", static_cast<double>(stats.chunks));
  json.metric("worker_protocol", "ring_full_stalls",
              static_cast<double>(stats.ring_full_stalls));
  json.metric("worker_protocol", "parks", static_cast<double>(stats.parks));
  json.metric("worker_protocol", "wakeups",
              static_cast<double>(stats.wakeups));
  json.metric("worker_protocol", "doorbells",
              static_cast<double>(stats.doorbells));
  json.metric("worker_protocol", "chunk_hint",
              static_cast<double>(engine.chunk_hint()));
}

/// The acceptance bar for the telemetry subsystem: batched-outbound
/// throughput with metrics bound must stay within 2% of the unbound rate.
/// Reps are interleaved (off, on, off, on, ...) so thermal drift or a noisy
/// neighbour cannot load the comparison one way.
void telemetry_overhead(Workload& w, bench::JsonWriter& json,
                        telemetry::MetricsRegistry& registry) {
  const std::size_t workers = swept_worker_counts().back();
  bench::header("telemetry overhead (batched outbound, " +
                std::to_string(workers) + " workers)");
  EngineConfig config;
  config.shards = workers;
  DataPlaneEngine engine(w.local, kLocalAs, config);
  double off = 0, on = 0;
  const int reps = std::max(g_reps, 2) * 2;
  for (int rep = 0; rep < reps; ++rep) {
    engine.unbind_metrics();
    off = std::max(off, run_batch_once(engine, w.outbound, /*outbound=*/true));
    engine.bind_metrics(registry);
    on = std::max(on, run_batch_once(engine, w.outbound, /*outbound=*/true));
  }
  const double overhead_pct = off > 0 ? 100.0 * (off - on) / off : 0.0;
  std::printf("  %-28s %12.0f pkt/s\n", "metrics disabled", off);
  std::printf("  %-28s %12.0f pkt/s\n", "metrics enabled", on);
  std::printf("  overhead: %+.2f%% (bar: within 2%%)\n", overhead_pct);
  json.metric("telemetry_overhead", "metrics_off_pkts_per_sec", off);
  json.metric("telemetry_overhead", "metrics_on_pkts_per_sec", on);
  json.metric("telemetry_overhead", "overhead_pct", overhead_pct);
  // The engine stays bound until it goes out of scope here, so a --metrics
  // snapshot taken afterwards still sees the populated instruments (they
  // outlive the collector in the registry).
  engine.unbind_metrics();
}

/// The acceptance bar for distributed tracing mirrors telemetry's: the
/// control-plane fast path with tracing DISABLED (no SpanTracer attached,
/// no context on the wire) is the baseline, and merely carrying the
/// optional trace-context extension — what a node pays when its peers
/// trace but it does not — must stay within the same 2% budget. A tracer
/// actually streaming a shard is reported for scale but not gated: it
/// flushes per record by design. Codec rates quantify the 24-byte wire
/// extension on its own.
void tracing_overhead(bench::JsonWriter& json) {
  bench::header("tracing overhead (control path; bar: ctx within 2%)");

  // --- codec: encode+decode round trips with and without context ---
  Envelope bare;
  bare.from = 1;
  bare.to = 2;
  bare.seq = 7;
  bare.message = KeyInstall{derive_key128(42), 3, true};
  Envelope traced = bare;
  traced.trace = telemetry::TraceContext{0x1111, 0x2222, 0x3333};
  const std::size_t codec_iters = g_packets / 4;
  auto codec_once = [&](const Envelope& envelope) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < codec_iters; ++i) {
      const auto wire = encode_envelope(envelope);
      if (!decode_envelope(wire)) std::abort();
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return secs > 0 ? static_cast<double>(codec_iters) / secs : 0.0;
  };
  double codec_bare = 0, codec_ctx = 0;
  for (int rep = 0; rep < std::max(g_reps, 2) * 2; ++rep) {
    codec_bare = std::max(codec_bare, codec_once(bare));
    codec_ctx = std::max(codec_ctx, codec_once(traced));
  }
  std::printf("  %-28s %12.0f roundtrips/s\n", "codec, no context", codec_bare);
  std::printf("  %-28s %12.0f roundtrips/s\n", "codec, with context", codec_ctx);
  json.metric("tracing_overhead", "codec_no_ctx_roundtrips_per_sec",
              codec_bare);
  json.metric("tracing_overhead", "codec_ctx_roundtrips_per_sec", codec_ctx);

  // --- reliable link over the in-process bus: the gated comparison ---
  const std::size_t messages = g_packets / 4;
  auto link_once = [&](bool ctx_on, telemetry::SpanTracer* tracer) {
    EventLoop loop;
    ConConNetwork net(loop, /*latency=*/0);
    ReliableLink sender(loop, net, 1);
    ReliableLink receiver(loop, net, 2);
    if (tracer != nullptr) {
      sender.set_span_tracer(tracer);
      receiver.set_span_tracer(tracer);
    }
    net.attach(1, [&](const Envelope& e) { (void)sender.on_receive(e); });
    net.attach(2, [&](const Envelope& e) { (void)receiver.on_receive(e); });
    const std::optional<telemetry::TraceContext> ctx =
        ctx_on ? std::optional<telemetry::TraceContext>(
                     telemetry::TraceContext{0xaaaa, 0xbbbb, 1})
               : std::nullopt;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < messages; ++i) {
      sender.send(2, KeyInstallAck{i}, ctx);
      if ((i & 1023) == 0) loop.run();  // drain in batches, bounded memory
    }
    loop.run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return secs > 0 ? static_cast<double>(messages) / secs : 0.0;
  };
  telemetry::SpanTracer tracer(1);
  tracer.open("/dev/null");
  double off = 0, ctx_rate = 0, on = 0;
  for (int rep = 0; rep < std::max(g_reps, 2) * 2; ++rep) {
    off = std::max(off, link_once(false, nullptr));
    ctx_rate = std::max(ctx_rate, link_once(true, nullptr));
    on = std::max(on, link_once(true, &tracer));
  }
  const double overhead_pct = off > 0 ? 100.0 * (off - ctx_rate) / off : 0.0;
  std::printf("  %-28s %12.0f msgs/s\n", "tracing disabled", off);
  std::printf("  %-28s %12.0f msgs/s\n", "context on wire, no tracer",
              ctx_rate);
  std::printf("  %-28s %12.0f msgs/s\n", "tracer streaming shard", on);
  std::printf("  context overhead: %+.2f%% (bar: within 2%%)\n", overhead_pct);
  json.metric("tracing_overhead", "link_disabled_msgs_per_sec", off);
  json.metric("tracing_overhead", "link_ctx_msgs_per_sec", ctx_rate);
  json.metric("tracing_overhead", "link_traced_msgs_per_sec", on);
  json.metric("tracing_overhead", "ctx_overhead_pct", overhead_pct);
}

}  // namespace
}  // namespace discs

int main(int argc, char** argv) {
  using namespace discs;
  const bench::Args args = bench::parse_args(argc, argv, "engine");
  if (args.smoke) {
    g_packets = 1 << 13;
    // Best-of-3 even in smoke: the w1 gate compares two ~1ms measurements,
    // and a single rep is at the mercy of one scheduler hiccup.
    g_reps = 3;
  }

  telemetry::SimTracer tracer;
  tracer.set_process_name("bench_engine");
  // The harness has no simulation clock; trace timestamps are wall-clock
  // microseconds since startup, which the trace viewer renders just as well.
  const auto origin = std::chrono::steady_clock::now();
  auto wall_us = [&origin] {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin)
            .count());
  };
  auto span = [&](const char* name, auto&& fn) {
    const SimTime t0 = wall_us();
    fn();
    tracer.complete(name, "bench", t0, wall_us() - t0);
  };

  bench::header("run-to-completion batch data-plane engine");
  std::printf("  workload: %zu IPv4 packets/rep, 2x1025-prefix Pfx2AS, "
              "AES-CMAC stamp/verify on every packet; best of %d reps%s\n",
              g_packets, g_reps, args.smoke ? " (smoke)" : "");
  std::printf("  hardware_concurrency: %u; worker sweep clamped to available "
              "cores (skipped: %s)\n",
              std::thread::hardware_concurrency(),
              skipped_worker_counts_label().c_str());
  Workload w;
  bench::JsonWriter json = bench::make_writer("engine", args);
  json.label("skipped_worker_counts", skipped_worker_counts_label());
  double w1_speedup = 0;
  span("outbound_sweep",
       [&] { w1_speedup = sweep(w, /*outbound=*/true, json); });
  span("inbound_sweep", [&] { sweep(w, /*outbound=*/false, json); });
  span("worker_protocol", [&] { worker_protocol(w, json); });
  span("telemetry_overhead", [&] {
    telemetry_overhead(w, json, telemetry::MetricsRegistry::global());
  });
  span("tracing_overhead", [&] { tracing_overhead(json); });

  bool ok = bench::finish(json, args, nullptr, &tracer);
  if (args.smoke && w1_speedup < kSmokeW1SpeedupFloor) {
    std::printf("\nSMOKE GATE FAILED: outbound engine_w1_speedup %.3f < %.2f "
                "(single-worker bypass regressed)\n",
                w1_speedup, kSmokeW1SpeedupFloor);
    ok = false;
  }
  return ok ? 0 : 1;
}
