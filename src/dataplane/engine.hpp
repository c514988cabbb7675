// The run-to-completion batch data-plane engine: the scaling layer above
// BorderRouter. A batch (mixed IPv4/IPv6) is partitioned by an RSS-style
// flow hash onto N shards; each shard owns a BorderRouter, and the
// per-shard RouterStats merge into one aggregate via RouterStats::operator+=.
//
// Worker model (persistent, SPSC-fed — no per-batch thread fan-out):
//  * Shard 0 always runs on the consumer thread. Shards 1..N-1 each own one
//    persistent pinned worker thread, spawned once (at construction, at
//    start(), or lazily on the first multi-shard batch) and parked on a
//    generation-stamped doorbell while idle.
//  * Fan-out moves index ranges, not packets: the consumer partitions the
//    batch into per-shard index lists and pushes span-based work items
//    (begin/end ranges into those lists) onto each worker's bounded SPSC
//    ring. A chunk autotuner picks the range granularity from an EWMA of
//    per-shard occupancy so phase-A/phase-B passes stay cache-resident.
//  * Completion is a per-worker cumulative chunk counter, awaited with a
//    spin-then-futex wait — no join barrier, no condvar round trip.
//  * With one shard the engine bypasses partitioning and rings entirely and
//    runs the (chunked) batch inline on the consumer thread.
//
// Concurrency contract:
//  * process_outbound/process_inbound are called from ONE consumer thread
//    at a time; internally they feed the persistent workers.
//  * Table mutations (deploy/undeploy, re-keying, Pfx2AS refresh) must go
//    through update_tables()/apply(), which quiesce the rings by taking the
//    writer lock: a batch holds the reader lock from fan-out until every
//    ring has drained, so the writer only ever runs between batches, with
//    all workers parked and every ring empty, so no batch ever sees a
//    half-applied update.
//  * Sinks (alarm samples, ICMPv6 PTB, traffic observations, flow reports)
//    are collected per shard during the batch and drained on the calling
//    thread after the rings quiesce — callbacks never run concurrently.
//    Within one batch the drain order is shard-major, not arrival order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "dataplane/router.hpp"
#include "dataplane/spsc_ring.hpp"
#include "telemetry/metrics.hpp"

namespace discs {

class TableTransaction;

// BatchPacket (the variant unit of work) lives in dataplane/router.hpp next
// to the batch entry points that consume it.

/// A mixed IPv4/IPv6 batch. Index i of the verdict vector returned by the
/// engine corresponds to packet i in insertion order.
class PacketBatch {
 public:
  PacketBatch() = default;

  void reserve(std::size_t n) { packets_.reserve(n); }
  void add(Ipv4Packet packet) { packets_.emplace_back(std::move(packet)); }
  void add(Ipv6Packet packet) { packets_.emplace_back(std::move(packet)); }
  void add(BatchPacket packet) { packets_.push_back(std::move(packet)); }
  void clear() { packets_.clear(); }

  [[nodiscard]] std::size_t size() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }

  [[nodiscard]] BatchPacket& operator[](std::size_t i) { return packets_[i]; }
  [[nodiscard]] const BatchPacket& operator[](std::size_t i) const {
    return packets_[i];
  }

  [[nodiscard]] BatchPacket* data() { return packets_.data(); }
  [[nodiscard]] const BatchPacket* data() const { return packets_.data(); }

  /// The span view the engine actually consumes.
  [[nodiscard]] std::span<BatchPacket> span() {
    return {packets_.data(), packets_.size()};
  }

  [[nodiscard]] auto begin() { return packets_.begin(); }
  [[nodiscard]] auto end() { return packets_.end(); }
  [[nodiscard]] auto begin() const { return packets_.begin(); }
  [[nodiscard]] auto end() const { return packets_.end(); }

 private:
  std::vector<BatchPacket> packets_;
};

/// RSS-style flow hash: the same (src, dst) pair always lands on the same
/// shard, so per-flow processing order survives sharding.
[[nodiscard]] std::uint32_t flow_hash(Ipv4Address src, Ipv4Address dst);
[[nodiscard]] std::uint32_t flow_hash(const Ipv6Address& src,
                                      const Ipv6Address& dst);
[[nodiscard]] std::uint32_t flow_hash(const BatchPacket& packet);

struct EngineConfig {
  std::size_t shards = 0;  // 0 = hardware_concurrency
  std::uint64_t rng_seed = 1;
  std::size_t external_mtu = 1500;
  /// SPSC work-ring slots per worker (rounded up to a power of two). Small
  /// values force wraparound and producer backpressure — useful in tests.
  std::size_t ring_slots = 64;
  /// Chunk-autotuner clamp: work items cover [min_chunk, max_chunk] packet
  /// indices. Equal values pin the granularity (disables autotuning). The
  /// max default keeps a chunk's two-phase walk (lookup pass + verdict
  /// pass over the same packets) L2-resident; larger chunks re-introduce
  /// the cache thrash the chunking exists to remove.
  std::size_t min_chunk = 256;
  std::size_t max_chunk = 1024;
  /// Best-effort worker-thread affinity (worker i -> core (i+1) mod cores);
  /// skipped when the host has a single core.
  bool pin_workers = true;
  /// Spawn the persistent workers inside the constructor. When false they
  /// spawn at start() or lazily on the first multi-shard batch, so
  /// engines that never see batch traffic never own threads.
  bool spawn_workers_eagerly = false;
};

class DataPlaneEngine {
 public:
  /// `tables` must outlive the engine. The engine takes them non-const
  /// because it is also the mutation gate: all updates flow through
  /// update_tables()/apply().
  DataPlaneEngine(RouterTables& tables, AsNumber local_as,
                  EngineConfig config = {});

  /// Spawns the persistent workers (idempotent; a no-op with one shard).
  /// Called lazily by the first multi-shard batch when the config did not
  /// ask for eager spawning.
  void start();
  /// Parks and joins the workers (idempotent). The engine stays usable:
  /// the next multi-shard batch restarts them. Must not race process_*.
  void stop();
  [[nodiscard]] bool workers_running() const { return !workers_.empty(); }

  /// Processes a batch leaving / entering the local AS. Returns one verdict
  /// per packet, aligned with batch indices. Packets are mutated in place
  /// (stamping, mark erasure) exactly as BorderRouter would.
  std::vector<Verdict> process_outbound(PacketBatch& batch, SimTime now);
  std::vector<Verdict> process_inbound(PacketBatch& batch, SimTime now);
  std::vector<Verdict> process_outbound(std::span<BatchPacket> packets,
                                        SimTime now);
  std::vector<Verdict> process_inbound(std::span<BatchPacket> packets,
                                       SimTime now);

  /// Scatter view: processes exactly `packets[i]` for i in `indices`
  /// (ascending, no duplicates), writing `verdicts[i]`. `verdicts` must
  /// span packets.size(); entries not named by `indices` are untouched.
  /// This is the zero-copy fan-out used by DiscsSystem::send_batch — the
  /// caller keeps one flat batch and hands out index views instead of
  /// gathering sub-batches.
  void process_outbound(std::span<BatchPacket> packets,
                        std::span<const std::uint32_t> indices,
                        std::span<Verdict> verdicts, SimTime now);
  void process_inbound(std::span<BatchPacket> packets,
                       std::span<const std::uint32_t> indices,
                       std::span<Verdict> verdicts, SimTime now);

  /// Applies `mutate` to the tables under the writer lock (quiescing the
  /// worker rings). This is the only safe way to change tables while the
  /// engine is live.
  void update_tables(const std::function<void(RouterTables&)>& mutate);

  /// Applies a TableTransaction atomically: writer lock (rings quiesced,
  /// workers parked), every op in order, one epoch bump. Returns the new
  /// table epoch. This is the con-rou delivery endpoint — on sealed tables
  /// it is the only mutation path that does not abort.
  TableEpoch apply(const TableTransaction& txn, SimTime now);

  void set_alarm_mode(bool on);
  void set_sampling_rate(std::uint32_t one_in_n);
  void set_alarm_sink(std::function<void(const AlarmSample&)> sink);
  void set_icmp6_sink(std::function<void(Ipv6Packet)> sink);
  void set_traffic_observer(std::function<void(Ipv4Address, SimTime)> observer);
  /// Receives sampled alarm-mode flow reports (§IV-F NetFlow records),
  /// drained on the consumer thread like the other sinks.
  void set_flow_sink(std::function<void(const FlowReport&)> sink);

  /// Registers this engine's metrics into `registry` (idempotent;
  /// re-binding replaces the previous binding): per-verdict sharded
  /// counters, batch-size / per-shard queue-depth / CMAC-batch-occupancy
  /// histograms, an AES-backend info gauge, and a pull-mode view over the
  /// merged RouterStats + the worker protocol counters (parks, doorbell
  /// wakeups, ring-full stalls, chunks), all under `labels` (add e.g.
  /// {"as", "7"} to disambiguate engines). The hot-path cost when bound is
  /// one relaxed atomic add per packet plus a few histogram records per
  /// shard per batch; when unbound it is zero.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::Labels labels = {});
  /// Removes the pull-mode collector (safe to call when never bound).
  /// Native instruments stay registered — they are owned by the registry —
  /// but stop moving. The destructor unbinds automatically.
  void unbind_metrics();
  [[nodiscard]] bool metrics_bound() const { return telem_.registry != nullptr; }

  ~DataPlaneEngine();

  /// Per-shard RouterStats merged into one aggregate (cumulative since
  /// construction). Blocks until any in-flight batch completes.
  [[nodiscard]] RouterStats stats() const;

  /// Worker-protocol counters, cumulative since construction. Cheap
  /// relaxed-atomic reads; safe from any thread at any time.
  struct WorkerStats {
    std::uint64_t parks = 0;            // workers entering doorbell wait
    std::uint64_t wakeups = 0;          // doorbell-triggered unparks
    std::uint64_t doorbells = 0;        // notify syscalls the producer paid
    std::uint64_t ring_full_stalls = 0; // producer spins on a full ring
    std::uint64_t chunks = 0;           // work items dispatched to rings
  };
  [[nodiscard]] WorkerStats worker_stats() const;

  /// The chunk granularity the autotuner would use for the next batch.
  [[nodiscard]] std::size_t chunk_hint() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] AsNumber local_as() const;
  /// Which shard a packet would be processed on.
  [[nodiscard]] std::size_t shard_of(const BatchPacket& packet) const {
    return flow_hash(packet) % shards_.size();
  }

 private:
  struct Shard {
    Shard(std::size_t id_in, const RouterTables& tables, AsNumber local_as,
          std::uint64_t seed, std::size_t mtu)
        : id(id_in), router(tables, local_as, seed, mtu) {}

    std::size_t id;  // shard index: cell selector for the sharded counters
    BorderRouter router;
    std::vector<std::uint32_t> indices;  // batch scratch: packets of this shard
    std::vector<AlarmSample> alarms;
    std::vector<Ipv6Packet> icmp6;
    std::vector<std::pair<Ipv4Address, SimTime>> observed;
    std::vector<FlowReport> flow_reports;
  };

  /// An index range into one shard's per-batch `indices` list. The worker
  /// resolves it against the per-batch context published before the push.
  struct WorkItem {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// One persistent worker: its SPSC work feed plus the doorbell/park and
  /// completion protocol state, each on its own cache line.
  struct Worker {
    explicit Worker(std::size_t ring_slots) : ring(ring_slots) {}

    SpscRing<WorkItem> ring;
    /// Bumped by the producer (with a notify) only when the worker is
    /// parked; the worker waits on a generation it read before parking, so
    /// a bump between the read and the wait turns the wait into a no-op.
    alignas(64) std::atomic<std::uint64_t> doorbell{0};
    std::atomic<bool> parked{false};
    /// Cumulative work items completed; the producer-side `pushed` mirror
    /// is plain because only the consumer thread writes it.
    alignas(64) std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> consumer_waiting{false};
    alignas(64) std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::uint64_t pushed = 0;
    std::thread thread;
  };

  /// Instruments registered by bind_metrics; null pointers = unbound.
  struct Telemetry {
    telemetry::MetricsRegistry* registry = nullptr;
    telemetry::ShardedCounter* verdicts[4] = {};  // indexed by Verdict
    telemetry::Histogram* batch_size = nullptr;
    telemetry::Histogram* queue_depth = nullptr;
    telemetry::MetricsRegistry::CollectorId collector = 0;
  };

  template <bool kOutbound>
  void process(std::span<BatchPacket> packets,
               std::span<const std::uint32_t> indices,
               std::span<Verdict> verdicts, SimTime now);
  template <bool kOutbound>
  std::vector<Verdict> process_all(std::span<BatchPacket> packets, SimTime now);

  /// Runs one index range of `shard` against the published batch context.
  /// Called from the owning worker thread (shards 1..N-1) or the consumer
  /// thread (shard 0 and the single-shard bypass).
  void run_chunk(Shard& shard, std::span<const std::uint32_t> indices,
                 bool outbound);
  void worker_main(std::size_t worker_index);
  void push_work(Worker& worker, WorkItem item);
  void wait_for(Worker& worker);
  void drain_sinks();
  [[nodiscard]] std::size_t autotune_chunk(std::size_t shard_occupancy);

  RouterTables* tables_;
  EngineConfig config_;
  mutable std::shared_mutex mutex_;  // shared: batch; unique: update/stats
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(const AlarmSample&)> alarm_sink_;
  std::function<void(Ipv6Packet)> icmp6_sink_;
  std::function<void(Ipv4Address, SimTime)> traffic_observer_;
  std::function<void(const FlowReport&)> flow_sink_;
  Telemetry telem_;

  // ---- persistent-worker state ----
  std::vector<std::unique_ptr<Worker>> workers_;  // size: shards-1 or 0
  std::atomic<bool> stop_{false};
  // Per-batch context published to workers through the ring pushes (the
  // release store on the ring head orders these writes before the pop).
  std::span<BatchPacket> ctx_packets_;
  Verdict* ctx_verdicts_ = nullptr;
  SimTime ctx_now_ = 0;
  bool ctx_outbound_ = false;
  // Occupancy EWMA feeding the chunk autotuner (consumer thread only).
  double ewma_occupancy_ = 0;
  std::vector<std::uint32_t> iota_;  // identity indices for full batches
  // Worker-protocol counters surfaced by worker_stats(); relaxed atomics so
  // a metrics scrape may read them mid-batch.
  std::atomic<std::uint64_t> doorbells_{0};
  std::atomic<std::uint64_t> ring_full_stalls_{0};
  std::atomic<std::uint64_t> chunks_{0};
};

}  // namespace discs
