// Paper-scale streaming soak (the ROADMAP "internet-at-scale" item): load
// the full 44,036-AS / 442k-prefix synthetic internet, hold a million-flow
// Zipf population, and stream millions of packets chunk by chunk through
// the batch engine's scatter-view API — the full workload is never
// materialized (FlowStream regenerates each chunk from (seed, index)).
//
// Two identically-filled table sets run the identical packet stream:
//
//   sealed     RouterTables::seal() — compiled flat-array LPM
//              (DIR-24-8 at this scale)
//   trie       unsealed — BinaryTrie/StrideTrie lookups (the pre-seal
//              build representation, the only other lookup path)
//
// The merged RouterStats of the two runs must be field-for-field identical
// (the compiled engines are a pure representation change); that equivalence
// is a hard gate in every mode, not just --smoke. --smoke downsamples the
// topology and workload for the CI leg and additionally gates:
//   * sealed outbound throughput >= kSmokePktsPerSecFloor,
//   * compiled bytes/prefix <= kSmokeBytesPerPrefixCeil,
//   * sealed/trie speedup >= kSmokeSealedSpeedupFloor.
//
// Flags: [--smoke] [--scenario FILE] [--trace FILE] [--metrics FILE]
//        [OUTPUT.json]
//   --smoke          downsampled topology + workload, gates enforced
//   --scenario FILE  replace the built-in scale_soak spec (scale.* keys
//                    shape the FlowStream; synthetic.* the topology)
//   --metrics FILE   snapshot of the engine registry (includes the
//                    discs_lpm_compiled_bytes / discs_lpm_trie_bytes gauges)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "attack/stream.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dataplane/engine.hpp"
#include "telemetry/metrics.hpp"
#include "topology/synthetic.hpp"

namespace discs {
namespace {

constexpr char kBuiltinScenario[] = R"(scenario scale_soak
seed 20121011
topology synthetic
synthetic.ases 44036
synthetic.prefixes 442000
)";

// --smoke gates (the full-scale run records, the smoke run enforces).
constexpr double kSmokePktsPerSecFloor = 500e3;
constexpr double kSmokeBytesPerPrefixCeil = 4096.0;
constexpr double kSmokeSealedSpeedupFloor = 0.95;

/// Simulated "now" for every stamp/verify: inside the [0, 1h) windows the
/// fixture installs, clear of the tolerance edge.
constexpr SimTime kNow = 30 * kSecond;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Loads the full prefix-ownership snapshot into a table set's Pfx2AS trie.
void fill_pfx2as(RouterTables& tables, const InternetDataset& dataset) {
  for (const PrefixOrigin& entry : dataset.entries()) {
    tables.pfx2as.add(entry.prefix, entry.origins.front());
  }
}

/// The AS-under-test fixture: stamp everything leaving for the peer,
/// verify everything arriving for our own prefixes. Applied identically to
/// the sealed and the trie table sets so the two runs differ only in
/// lookup machinery.
void fill_local(RouterTables& tables, const InternetDataset& dataset,
                AsNumber local_as, AsNumber peer_as) {
  fill_pfx2as(tables, dataset);
  const Key128 k_lp = derive_key128(1);  // local -> peer stamping key
  const Key128 k_pl = derive_key128(2);  // peer -> local (we verify)
  tables.key_s.set_key(peer_as, k_lp);
  tables.key_v.set_key(peer_as, k_pl);
  for (const Prefix4& p : dataset.prefixes_of(peer_as)) {
    tables.out_dst.install(p, DefenseFunction::kCdpStamp, 0, kHour);
  }
  for (const Prefix4& p : dataset.prefixes_of(local_as)) {
    tables.in_dst.install(p, DefenseFunction::kCdpVerify, 0, kHour);
  }
}

/// The peer fixture mints the inbound workload: stamps traffic headed for
/// the local AS with the key the local tables verify against.
void fill_peer(RouterTables& tables, const InternetDataset& dataset,
               AsNumber local_as) {
  fill_pfx2as(tables, dataset);
  tables.key_s.set_key(local_as, derive_key128(2));
  for (const Prefix4& p : dataset.prefixes_of(local_as)) {
    tables.out_dst.install(p, DefenseFunction::kCdpStamp, 0, kHour);
  }
}

/// Reusable per-chunk buffers: one flat chunk, identity scatter indices,
/// verdict slots. fill_chunk reuses the packet vector's capacity.
struct ChunkBuffers {
  std::vector<BatchPacket> packets;
  std::vector<std::uint32_t> indices;
  std::vector<Verdict> verdicts;

  explicit ChunkBuffers(std::size_t chunk)
      : indices(chunk), verdicts(chunk, Verdict::kPass) {
    packets.reserve(chunk);
    std::iota(indices.begin(), indices.end(), 0u);
  }
};

/// One full pass of the stream through the engine's outbound scatter view,
/// packets/sec. Only the engine call is timed — chunk synthesis is the
/// generator's cost, not the data plane's.
double outbound_pass(DataPlaneEngine& engine, const FlowStream& stream,
                     std::uint64_t chunks, ChunkBuffers& buf) {
  double secs = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    stream.fill_chunk(c, buf.packets);
    const auto t0 = std::chrono::steady_clock::now();
    engine.process_outbound(std::span(buf.packets), buf.indices, buf.verdicts,
                            kNow);
    secs += seconds_since(t0);
  }
  return static_cast<double>(chunks * buf.indices.size()) / secs;
}

/// Untimed warmup chunk: first-touch of the compiled tables / tries and
/// the engine's worker spin-up happen off the clock.
void warmup(DataPlaneEngine& engine, const FlowStream& stream,
            ChunkBuffers& buf) {
  stream.fill_chunk(0, buf.packets);
  engine.process_outbound(std::span(buf.packets), buf.indices, buf.verdicts,
                          kNow);
}

/// Inbound twin: each chunk is stamped by the peer's BorderRouter first
/// (untimed — it is workload synthesis), then verified by the engine.
/// Returns packets/sec (single pass; the verify leg carries no gate).
double run_inbound(DataPlaneEngine& engine, BorderRouter& stamper,
                   const FlowStream& stream, std::uint64_t chunks,
                   ChunkBuffers& buf) {
  stream.fill_chunk(0, buf.packets);
  stamper.process_outbound_batch(std::span(buf.packets), buf.indices,
                                 buf.verdicts, kNow);
  engine.process_inbound(std::span(buf.packets), buf.indices, buf.verdicts,
                         kNow);
  double secs = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    stream.fill_chunk(c, buf.packets);
    stamper.process_outbound_batch(std::span(buf.packets), buf.indices,
                                   buf.verdicts, kNow);
    const auto t0 = std::chrono::steady_clock::now();
    engine.process_inbound(std::span(buf.packets), buf.indices, buf.verdicts,
                           kNow);
    secs += seconds_since(t0);
  }
  return static_cast<double>(chunks * buf.indices.size()) / secs;
}

}  // namespace
}  // namespace discs

int main(int argc, char** argv) {
  using namespace discs;
  const bench::Args args = bench::parse_args(argc, argv, "scale");
  bench::JsonWriter json = bench::make_writer("scale", args);
  scenario::ScenarioSpec spec =
      bench::load_bench_scenario(args, kBuiltinScenario, json);
  if (args.smoke) {
    // CI leg: small topology (root-8 compiled tables; the DIR-24-8 path is
    // covered by lpm_test's root_bits override), short stream.
    spec.synthetic.num_ases = 512;
    spec.synthetic.num_prefixes = 5120;
    spec.scale.flows = std::size_t{1} << 16;
    spec.scale.packets = std::size_t{1} << 18;
    spec.scale.chunk = 4096;
  }

  bench::header("paper-scale streaming soak (sealed flat LPM vs trie)");
  const auto t_gen = std::chrono::steady_clock::now();
  const InternetDataset dataset = generate_dataset(spec.synthetic);
  const std::vector<AsNumber> by_space = dataset.ases_by_space_desc();
  if (by_space.size() < 2) {
    std::fprintf(stderr, "topology too small: need two prefix-owning ASes\n");
    return 1;
  }
  const AsNumber local_as = by_space[0];
  const AsNumber peer_as = by_space[1];
  std::printf("  topology: %zu ASes, %zu prefixes (generated in %.1fs); "
              "local AS %u, peer AS %u\n",
              dataset.as_count(), dataset.entries().size(),
              seconds_since(t_gen), local_as, peer_as);
  std::printf("  workload: %zu flows, %zu packets, chunk %zu, zipf_s %.2f%s\n",
              spec.scale.flows, spec.scale.packets, spec.scale.chunk,
              spec.scale.zipf_s, args.smoke ? " (smoke)" : "");

  // Identically-filled table sets; only one is sealed.
  RouterTables sealed_tables;
  RouterTables trie_tables;
  RouterTables peer_tables;
  fill_local(sealed_tables, dataset, local_as, peer_as);
  fill_local(trie_tables, dataset, local_as, peer_as);
  fill_peer(peer_tables, dataset, local_as);
  const auto t_seal = std::chrono::steady_clock::now();
  sealed_tables.seal();
  const double seal_secs = seconds_since(t_seal);

  const StreamConfig stream_config{.flows = spec.scale.flows,
                                   .chunk_size = spec.scale.chunk,
                                   .zipf_s = spec.scale.zipf_s,
                                   .payload_bytes = spec.scale.payload};
  const FlowStream out_stream(dataset, local_as, peer_as, stream_config,
                              derive_seed(spec.seed, 1));
  const FlowStream in_stream(dataset, peer_as, local_as, stream_config,
                             derive_seed(spec.seed, 2));
  const std::uint64_t out_chunks =
      std::max<std::uint64_t>(1, spec.scale.packets / spec.scale.chunk);
  // The verify leg is CMAC-bound like the stamp leg; a quarter of the
  // stream is enough signal without doubling the soak's wall clock.
  const std::uint64_t in_chunks = std::max<std::uint64_t>(1, out_chunks / 4);
  ChunkBuffers buf(spec.scale.chunk);

  telemetry::MetricsRegistry registry;
  double sealed_rate = 0, trie_rate = 0, in_rate = 0;
  std::uint64_t in_verified = 0;
  RouterStats sealed_stats, trie_stats;
  const int reps = 5;
  BorderRouter stamper(peer_tables, peer_as, 7);
  DataPlaneEngine sealed_engine(sealed_tables, local_as, spec.engine);
  DataPlaneEngine trie_engine(trie_tables, local_as, spec.engine);
  warmup(sealed_engine, out_stream, buf);
  warmup(trie_engine, out_stream, buf);
  // Interleave the passes (sealed, trie, sealed, trie, ...): adjacent
  // passes share host-load conditions, so the per-rep ratio is robust even
  // when absolute rates drift. Reported rates are best-of; the speedup is
  // the median of the paired ratios.
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const double s = outbound_pass(sealed_engine, out_stream, out_chunks, buf);
    const double t = outbound_pass(trie_engine, out_stream, out_chunks, buf);
    sealed_rate = std::max(sealed_rate, s);
    trie_rate = std::max(trie_rate, t);
    ratios.push_back(s / t);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double speedup = ratios[ratios.size() / 2];
  // Both engines saw the identical outbound-only workload: snapshot for
  // the equivalence gate before the inbound leg muddies one of them.
  sealed_stats = sealed_engine.stats();
  trie_stats = trie_engine.stats();
  in_rate = run_inbound(sealed_engine, stamper, in_stream, in_chunks, buf);
  in_verified = sealed_engine.stats().in_verified;
  // Bound through finish() so a --metrics snapshot sees the
  // discs_lpm_compiled_bytes / discs_lpm_trie_bytes gauges.
  sealed_engine.bind_metrics(registry);

  std::printf("  %-34s %12.0f pkt/s\n", "outbound, sealed flat LPM",
              sealed_rate);
  std::printf("  %-34s %12.0f pkt/s   sealed speedup %5.2fx (median of %d)\n",
              "outbound, unsealed trie", trie_rate, speedup, reps);
  std::printf("  %-34s %12.0f pkt/s\n", "inbound,  sealed flat LPM", in_rate);

  const double prefixes = static_cast<double>(dataset.entries().size());
  const double compiled_bytes =
      static_cast<double>(sealed_tables.compiled_memory_bytes());
  const double trie_bytes =
      static_cast<double>(sealed_tables.trie_memory_bytes());
  const double stream_bytes = static_cast<double>(out_stream.memory_bytes());
  const double flows = static_cast<double>(out_stream.flow_count());
  std::printf("  compiled LPM %10.0f bytes (%6.1f bytes/prefix, sealed in "
              "%.2fs); trie %10.0f bytes (%6.1f bytes/prefix)\n",
              compiled_bytes, compiled_bytes / prefixes, seal_secs, trie_bytes,
              trie_bytes / prefixes);
  std::printf("  stream state %8.0f bytes for %.0f flows (%4.1f bytes/flow)\n",
              stream_bytes, flows, stream_bytes / flows);

  json.metric("topology", "ases", static_cast<double>(dataset.as_count()));
  json.metric("topology", "prefixes", prefixes);
  json.metric("workload", "flows", flows);
  json.metric("workload", "outbound_packets",
              static_cast<double>(out_chunks * spec.scale.chunk));
  json.metric("workload", "inbound_packets",
              static_cast<double>(in_chunks * spec.scale.chunk));
  json.metric("workload", "chunk", static_cast<double>(spec.scale.chunk));
  json.metric("workload", "zipf_s", spec.scale.zipf_s);
  json.metric("outbound", "sealed_pkts_per_sec", sealed_rate);
  json.metric("outbound", "trie_pkts_per_sec", trie_rate);
  json.metric("outbound", "sealed_speedup", speedup);
  json.metric("inbound", "sealed_pkts_per_sec", in_rate);
  json.metric("memory", "compiled_bytes", compiled_bytes);
  json.metric("memory", "trie_bytes", trie_bytes);
  json.metric("memory", "compiled_bytes_per_prefix", compiled_bytes / prefixes);
  json.metric("memory", "trie_bytes_per_prefix", trie_bytes / prefixes);
  json.metric("memory", "stream_bytes", stream_bytes);
  json.metric("memory", "stream_bytes_per_flow", stream_bytes / flows);
  json.metric("memory", "seal_seconds", seal_secs);
  json.metric("equivalence", "stats_identical",
              sealed_stats == trie_stats ? 1 : 0);
  json.label("pkts_per_sec", std::to_string(sealed_rate));
  json.label("bytes_per_prefix", std::to_string(compiled_bytes / prefixes));
  json.label("bytes_per_flow", std::to_string(stream_bytes / flows));
  json.label("concurrent_flows", std::to_string(out_stream.flow_count()));

  bool ok = bench::finish(json, args, &registry, nullptr);
  // Representation-equivalence gate (every mode): the sealed run and the
  // trie run saw byte-identical packets, so every counter must match.
  if (sealed_stats != trie_stats) {
    std::printf("\nGATE FAILED: sealed vs trie RouterStats diverge "
                "(stamped %llu vs %llu, dropped %llu vs %llu)\n",
                static_cast<unsigned long long>(sealed_stats.out_stamped),
                static_cast<unsigned long long>(trie_stats.out_stamped),
                static_cast<unsigned long long>(sealed_stats.out_dropped),
                static_cast<unsigned long long>(trie_stats.out_dropped));
    ok = false;
  }
  if (sealed_stats.out_stamped == 0 || in_verified == 0) {
    std::printf("\nGATE FAILED: workload never hit the defense hot path "
                "(stamped %llu, verified %llu)\n",
                static_cast<unsigned long long>(sealed_stats.out_stamped),
                static_cast<unsigned long long>(in_verified));
    ok = false;
  }
  if (args.smoke) {
    if (sealed_rate < kSmokePktsPerSecFloor) {
      std::printf("\nSMOKE GATE FAILED: sealed outbound %.0f pkt/s < %.0f\n",
                  sealed_rate, kSmokePktsPerSecFloor);
      ok = false;
    }
    if (compiled_bytes / prefixes > kSmokeBytesPerPrefixCeil) {
      std::printf("\nSMOKE GATE FAILED: compiled %.1f bytes/prefix > %.0f\n",
                  compiled_bytes / prefixes, kSmokeBytesPerPrefixCeil);
      ok = false;
    }
    if (speedup < kSmokeSealedSpeedupFloor) {
      std::printf("\nSMOKE GATE FAILED: sealed speedup %.3fx < %.2fx over "
                  "trie\n",
                  speedup, kSmokeSealedSpeedupFloor);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
