#include "dataplane/engine.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"
#include "crypto/aes_backend.hpp"
#include "dataplane/transaction.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace discs {

namespace {

/// Chunk-autotuner target: split a shard's per-batch work into about this
/// many ring items, so workers start while the consumer is still
/// dispatching and the producer can overlap its own shard-0 work.
constexpr std::size_t kChunksPerShard = 8;
/// Worker idle spins (polling the ring) before parking on the doorbell.
constexpr std::uint32_t kIdleSpins = 256;
/// Consumer completion-wait spins before futex-waiting on the counter.
constexpr std::uint32_t kWaitSpins = 128;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

void pin_to_core(std::thread& thread, std::size_t core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % CPU_SETSIZE, &set);
  // Best-effort: a failure (cgroup cpuset, exotic topology) costs locality,
  // not correctness.
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)core;
#endif
}

}  // namespace

std::uint32_t flow_hash(Ipv4Address src, Ipv4Address dst) {
  SplitMix64 mix((std::uint64_t{src.bits()} << 32) | dst.bits());
  return static_cast<std::uint32_t>(mix.next());
}

std::uint32_t flow_hash(const Ipv6Address& src, const Ipv6Address& dst) {
  // FNV-1a over both addresses, finalized through SplitMix64 so low bits are
  // well distributed for the modulo shard pick.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : src.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  for (std::uint8_t b : dst.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  SplitMix64 mix(h);
  return static_cast<std::uint32_t>(mix.next());
}

std::uint32_t flow_hash(const BatchPacket& packet) {
  return std::visit(
      [](const auto& p) { return flow_hash(p.header.src, p.header.dst); },
      packet);
}

DataPlaneEngine::DataPlaneEngine(RouterTables& tables, AsNumber local_as,
                                 EngineConfig config)
    : tables_(&tables), config_(config) {
  const std::size_t n = std::max<std::size_t>(
      1, config.shards == 0
             ? std::max(1u, std::thread::hardware_concurrency())
             : config.shards);
  config_.min_chunk = std::max<std::size_t>(1, config_.min_chunk);
  config_.max_chunk = std::max(config_.min_chunk, config_.max_chunk);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>(s, tables, local_as,
                                         derive_seed(config.rng_seed, s),
                                         config.external_mtu);
    Shard* raw = shard.get();
    // Shard routers report into shard-local buffers; drain_sinks() forwards
    // them to the user sinks on the consumer thread after each batch.
    raw->router.set_alarm_sink(
        [raw](const AlarmSample& sample) { raw->alarms.push_back(sample); });
    raw->router.set_icmp6_sink(
        [raw](Ipv6Packet packet) { raw->icmp6.push_back(std::move(packet)); });
    raw->router.set_flow_sink(
        [raw](const FlowReport& report) { raw->flow_reports.push_back(report); });
    shards_.push_back(std::move(shard));
  }
  if (config_.spawn_workers_eagerly) start();
}

void DataPlaneEngine::start() {
  if (shards_.size() < 2 || !workers_.empty()) return;
  std::unique_lock lock(mutex_);
  stop_.store(false, std::memory_order_relaxed);
  workers_.reserve(shards_.size() - 1);
  for (std::size_t wi = 0; wi + 1 < shards_.size(); ++wi) {
    workers_.push_back(std::make_unique<Worker>(config_.ring_slots));
  }
  // Spawn only after workers_ is fully built: worker_main indexes it.
  const unsigned hw = std::thread::hardware_concurrency();
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    workers_[wi]->thread = std::thread([this, wi] { worker_main(wi); });
    if (config_.pin_workers && hw > 1) {
      // Worker wi drives shard wi+1; spread over cores 1..hw-1 and leave
      // core 0 to the (unpinned) consumer.
      pin_to_core(workers_[wi]->thread, (wi + 1) % hw);
    }
  }
}

void DataPlaneEngine::stop() {
  if (workers_.empty()) return;
  std::unique_lock lock(mutex_);
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    // Rings are empty here (the writer lock quiesced them); the bump makes
    // any in-flight doorbell wait return immediately.
    w->doorbell.fetch_add(1, std::memory_order_release);
    w->doorbell.notify_one();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  workers_.clear();
  stop_.store(false, std::memory_order_relaxed);
}

void DataPlaneEngine::worker_main(std::size_t worker_index) {
  Worker& w = *workers_[worker_index];
  Shard& shard = *shards_[worker_index + 1];
  std::uint32_t spins = 0;
  for (;;) {
    WorkItem item;
    if (w.ring.try_pop(item)) {
      spins = 0;
      run_chunk(shard,
                std::span<const std::uint32_t>(shard.indices.data() + item.begin,
                                               item.end - item.begin),
                ctx_outbound_);
      w.completed.fetch_add(1, std::memory_order_release);
      // Dekker pairing with wait_for(): either this fence orders our
      // increment before the consumer's waiting-flag read, or we see the
      // flag and pay the notify.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (w.consumer_waiting.load(std::memory_order_relaxed)) {
        w.completed.notify_one();
      }
      continue;
    }
    if (++spins < kIdleSpins) {
      cpu_relax();
      continue;
    }
    // Park. Read the doorbell generation BEFORE publishing the parked flag:
    // a producer that pushes after our empty-recheck must observe
    // parked==true (its seq_cst fence follows ours) and bump the
    // generation, turning our wait into a no-op.
    const std::uint64_t gen = w.doorbell.load(std::memory_order_acquire);
    w.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!w.ring.empty()) {
      w.parked.store(false, std::memory_order_relaxed);
      spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      w.parked.store(false, std::memory_order_relaxed);
      return;
    }
    w.parks.fetch_add(1, std::memory_order_relaxed);
    w.doorbell.wait(gen, std::memory_order_acquire);
    w.parked.store(false, std::memory_order_relaxed);
    w.wakeups.fetch_add(1, std::memory_order_relaxed);
    spins = 0;
  }
}

void DataPlaneEngine::push_work(Worker& worker, WorkItem item) {
  while (!worker.ring.try_push(item)) {
    // Ring full implies the worker is awake and draining (it only parks on
    // an empty ring); yield so it can run even on a single core.
    ring_full_stalls_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
  ++worker.pushed;
  chunks_.fetch_add(1, std::memory_order_relaxed);
  // Ring the doorbell only when the worker is parked (Dekker pairing with
  // the park sequence in worker_main): the common back-to-back-batch case
  // costs one fence and one relaxed load, no syscall.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker.parked.load(std::memory_order_relaxed)) {
    worker.doorbell.fetch_add(1, std::memory_order_release);
    worker.doorbell.notify_one();
    doorbells_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DataPlaneEngine::wait_for(Worker& worker) {
  const std::uint64_t target = worker.pushed;
  std::uint64_t done = worker.completed.load(std::memory_order_acquire);
  std::uint32_t spins = 0;
  while (done != target) {
    if (++spins < kWaitSpins) {
      cpu_relax();
    } else {
      worker.consumer_waiting.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      done = worker.completed.load(std::memory_order_acquire);
      if (done == target) break;
      worker.completed.wait(done, std::memory_order_acquire);
      worker.consumer_waiting.store(false, std::memory_order_relaxed);
      spins = 0;
    }
    done = worker.completed.load(std::memory_order_acquire);
  }
  worker.consumer_waiting.store(false, std::memory_order_relaxed);
}

void DataPlaneEngine::run_chunk(Shard& shard,
                                std::span<const std::uint32_t> indices,
                                bool outbound) {
  if (indices.empty()) return;
  std::span<Verdict> verdicts(ctx_verdicts_, ctx_packets_.size());
  if (outbound) {
    shard.router.process_outbound_batch(ctx_packets_, indices, verdicts,
                                        ctx_now_);
  } else {
    shard.router.process_inbound_batch(ctx_packets_, indices, verdicts,
                                       ctx_now_);
  }
  if (telem_.registry != nullptr) {
    // Tally on the processing thread: the sharded counter cells make the
    // adds contention-free.
    std::uint64_t tally[4] = {};
    for (const std::uint32_t idx : indices) {
      ++tally[static_cast<std::size_t>(verdicts[idx])];
    }
    for (std::size_t v = 0; v < 4; ++v) {
      if (tally[v] != 0) telem_.verdicts[v]->add(shard.id, tally[v]);
    }
  }
}

std::size_t DataPlaneEngine::autotune_chunk(std::size_t shard_occupancy) {
  // Occupancy-driven, never time-driven: the granularity depends only on
  // the batch stream, so repeated runs over the same packets stay
  // bit-identical (the determinism suite pins this).
  const auto occ = static_cast<double>(shard_occupancy);
  ewma_occupancy_ =
      ewma_occupancy_ == 0 ? occ : 0.75 * ewma_occupancy_ + 0.25 * occ;
  const auto target =
      static_cast<std::size_t>(ewma_occupancy_ / kChunksPerShard);
  return std::clamp(target, config_.min_chunk, config_.max_chunk);
}

std::size_t DataPlaneEngine::chunk_hint() const {
  const auto target =
      static_cast<std::size_t>(ewma_occupancy_ / kChunksPerShard);
  return std::clamp(target, config_.min_chunk, config_.max_chunk);
}

template <bool kOutbound>
void DataPlaneEngine::process(std::span<BatchPacket> packets,
                              std::span<const std::uint32_t> indices,
                              std::span<Verdict> verdicts, SimTime now) {
  if (indices.empty()) return;
  assert(verdicts.size() >= packets.size());
  const std::size_t n = shards_.size();
  if (n > 1 && workers_.empty()) start();
  {
    std::shared_lock lock(mutex_);
    const bool instrumented = telem_.registry != nullptr;
    if (instrumented) {
      telem_.batch_size->record(static_cast<double>(indices.size()));
    }
    // Publish the batch context. The release store inside each ring push
    // orders these writes before any worker's pop; the single-shard bypass
    // reads them from the consumer thread directly.
    ctx_packets_ = packets;
    ctx_verdicts_ = verdicts.data();
    ctx_now_ = now;
    ctx_outbound_ = kOutbound;

    if (n == 1) {
      // Single-worker bypass: no hashing, no partition scratch, no rings —
      // the caller's index span is processed inline, in chunks so the
      // two-phase batch walk stays cache-resident.
      Shard& shard = *shards_[0];
      if (instrumented) {
        telem_.queue_depth->record(static_cast<double>(indices.size()));
      }
      const std::size_t chunk = autotune_chunk(indices.size());
      for (std::size_t at = 0; at < indices.size(); at += chunk) {
        run_chunk(shard, indices.subspan(at, std::min(chunk, indices.size() - at)),
                  kOutbound);
      }
    } else {
      // Partition: one flow-hash pass filling the per-shard index lists.
      for (auto& shard : shards_) shard->indices.clear();
      for (const std::uint32_t i : indices) {
        shards_[flow_hash(packets[i]) % n]->indices.push_back(i);
      }
      std::size_t max_occupancy = 0;
      for (const auto& shard : shards_) {
        max_occupancy = std::max(max_occupancy, shard->indices.size());
        if (instrumented) {
          telem_.queue_depth->record(
              static_cast<double>(shard->indices.size()));
        }
      }
      const std::size_t chunk = autotune_chunk(max_occupancy);
      // Dispatch round-robin so every worker receives its first chunk
      // before any worker receives its second.
      bool more = true;
      for (std::size_t at = 0; more; at += chunk) {
        more = false;
        for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
          const std::size_t have = shards_[wi + 1]->indices.size();
          if (at >= have) continue;
          const std::size_t end = std::min(have, at + chunk);
          push_work(*workers_[wi],
                    WorkItem{static_cast<std::uint32_t>(at),
                             static_cast<std::uint32_t>(end)});
          if (end < have) more = true;
        }
      }
      // Shard 0 runs here, overlapping the workers; then quiesce the rings.
      Shard& shard0 = *shards_[0];
      const std::span<const std::uint32_t> own(shard0.indices.data(),
                                               shard0.indices.size());
      for (std::size_t at = 0; at < own.size(); at += chunk) {
        run_chunk(shard0, own.subspan(at, std::min(chunk, own.size() - at)),
                  kOutbound);
      }
      for (auto& worker : workers_) wait_for(*worker);
    }
  }
  drain_sinks();
}

template <bool kOutbound>
std::vector<Verdict> DataPlaneEngine::process_all(std::span<BatchPacket> packets,
                                                  SimTime now) {
  std::vector<Verdict> verdicts(packets.size());
  if (packets.empty()) return verdicts;
  // Identity index view, cached across batches (it only ever grows).
  if (iota_.size() < packets.size()) {
    const auto old = static_cast<std::uint32_t>(iota_.size());
    iota_.resize(packets.size());
    for (std::uint32_t i = old; i < iota_.size(); ++i) iota_[i] = i;
  }
  process<kOutbound>(packets,
                     std::span<const std::uint32_t>(iota_.data(), packets.size()),
                     verdicts, now);
  return verdicts;
}

std::vector<Verdict> DataPlaneEngine::process_outbound(PacketBatch& batch,
                                                       SimTime now) {
  return process_all<true>(batch.span(), now);
}

std::vector<Verdict> DataPlaneEngine::process_inbound(PacketBatch& batch,
                                                      SimTime now) {
  return process_all<false>(batch.span(), now);
}

std::vector<Verdict> DataPlaneEngine::process_outbound(
    std::span<BatchPacket> packets, SimTime now) {
  return process_all<true>(packets, now);
}

std::vector<Verdict> DataPlaneEngine::process_inbound(
    std::span<BatchPacket> packets, SimTime now) {
  return process_all<false>(packets, now);
}

void DataPlaneEngine::process_outbound(std::span<BatchPacket> packets,
                                       std::span<const std::uint32_t> indices,
                                       std::span<Verdict> verdicts,
                                       SimTime now) {
  process<true>(packets, indices, verdicts, now);
}

void DataPlaneEngine::process_inbound(std::span<BatchPacket> packets,
                                      std::span<const std::uint32_t> indices,
                                      std::span<Verdict> verdicts,
                                      SimTime now) {
  process<false>(packets, indices, verdicts, now);
}

void DataPlaneEngine::drain_sinks() {
  for (auto& shard : shards_) {
    if (alarm_sink_) {
      for (const AlarmSample& sample : shard->alarms) alarm_sink_(sample);
    }
    shard->alarms.clear();
    if (icmp6_sink_) {
      for (Ipv6Packet& packet : shard->icmp6) icmp6_sink_(std::move(packet));
    }
    shard->icmp6.clear();
    if (traffic_observer_) {
      for (const auto& [dst, t] : shard->observed) traffic_observer_(dst, t);
    }
    shard->observed.clear();
    if (flow_sink_) {
      for (const FlowReport& report : shard->flow_reports) flow_sink_(report);
    }
    shard->flow_reports.clear();
  }
}

void DataPlaneEngine::update_tables(
    const std::function<void(RouterTables&)>& mutate) {
  // The writer lock IS the quiesce: a batch holds the reader lock from
  // fan-out until every ring drained, so once we own the lock all workers
  // are parked and every ring is empty — no joins, no thread churn.
  std::unique_lock lock(mutex_);
  mutate(*tables_);
}

TableEpoch DataPlaneEngine::apply(const TableTransaction& txn, SimTime now) {
  std::unique_lock lock(mutex_);
  return txn.apply(*tables_, now);
}

void DataPlaneEngine::set_alarm_mode(bool on) {
  std::unique_lock lock(mutex_);
  for (auto& shard : shards_) shard->router.set_alarm_mode(on);
}

void DataPlaneEngine::set_sampling_rate(std::uint32_t one_in_n) {
  std::unique_lock lock(mutex_);
  for (auto& shard : shards_) shard->router.set_sampling_rate(one_in_n);
}

void DataPlaneEngine::set_alarm_sink(
    std::function<void(const AlarmSample&)> sink) {
  std::unique_lock lock(mutex_);
  alarm_sink_ = std::move(sink);
}

void DataPlaneEngine::set_icmp6_sink(std::function<void(Ipv6Packet)> sink) {
  std::unique_lock lock(mutex_);
  icmp6_sink_ = std::move(sink);
}

void DataPlaneEngine::set_traffic_observer(
    std::function<void(Ipv4Address, SimTime)> observer) {
  std::unique_lock lock(mutex_);
  traffic_observer_ = std::move(observer);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    if (traffic_observer_) {
      raw->router.set_traffic_observer([raw](Ipv4Address dst, SimTime t) {
        raw->observed.emplace_back(dst, t);
      });
    } else {
      raw->router.set_traffic_observer(nullptr);
    }
  }
}

void DataPlaneEngine::set_flow_sink(
    std::function<void(const FlowReport&)> sink) {
  std::unique_lock lock(mutex_);
  flow_sink_ = std::move(sink);
}

void DataPlaneEngine::bind_metrics(telemetry::MetricsRegistry& registry,
                                   telemetry::Labels labels) {
  unbind_metrics();
  // Register the instruments before touching engine state: a concurrent
  // scrape holds the registry mutex and may call back into stats(), so the
  // engine lock must never be held across a registry call (lock-order
  // inversion otherwise).
  Telemetry t;
  const std::size_t n = shards_.size();
  static constexpr const char* kVerdictNames[4] = {
      "pass", "drop_filtered", "drop_spoofed", "drop_too_big"};
  for (std::size_t v = 0; v < 4; ++v) {
    telemetry::Labels l = labels;
    l.emplace_back("verdict", kVerdictNames[v]);
    t.verdicts[v] = &registry.sharded_counter(
        "discs_engine_verdicts_total", n,
        "Packets per verdict, summed across shards", l);
  }
  t.batch_size = &registry.histogram(
      "discs_engine_batch_size", telemetry::Histogram::pow2_bounds(20),
      "Packets per process_outbound/process_inbound call", labels);
  t.queue_depth = &registry.histogram(
      "discs_engine_shard_queue_depth", telemetry::Histogram::pow2_bounds(17),
      "Packets hashed onto one shard within one batch", labels);
  telemetry::Histogram& occupancy = registry.histogram(
      "discs_engine_cmac_batch_occupancy", telemetry::Histogram::pow2_bounds(17),
      "Deferred AES-CMAC computations per batch flush", labels);
  {
    telemetry::Labels l = labels;
    l.emplace_back("backend", to_string(aes_backend()));
    registry.gauge("discs_aes_backend_info",
                   "AES implementation in use; value is always 1", l)
        .set(1);
  }
  // Pull-mode view: the RouterStats struct and the worker protocol
  // counters stay the source of truth, the registry reads them only at
  // scrape time.
  const telemetry::MetricsRegistry::CollectorId collector =
      registry.add_collector([this, labels](std::vector<telemetry::Sample>& out) {
        const RouterStats s = stats();
        const WorkerStats w = worker_stats();
        auto emit = [&](const char* name, std::uint64_t v) {
          out.push_back({name, static_cast<double>(v), labels,
                         telemetry::MetricKind::kCounter});
        };
        emit("discs_router_out_processed_total", s.out_processed);
        emit("discs_router_out_dropped_total", s.out_dropped);
        emit("discs_router_out_stamped_total", s.out_stamped);
        emit("discs_router_out_too_big_total", s.out_too_big);
        emit("discs_router_fragments_stamped_total", s.fragments_stamped);
        emit("discs_router_in_processed_total", s.in_processed);
        emit("discs_router_in_verified_total", s.in_verified);
        emit("discs_router_in_spoof_dropped_total", s.in_spoof_dropped);
        emit("discs_router_in_spoof_sampled_total", s.in_spoof_sampled);
        emit("discs_router_in_erased_tolerance_total", s.in_erased_tolerance);
        emit("discs_router_in_passed_unverified_total", s.in_passed_unverified);
        emit("discs_router_icmp_scrubbed_total", s.icmp_scrubbed);
        emit("discs_engine_worker_parks_total", w.parks);
        emit("discs_engine_worker_wakeups_total", w.wakeups);
        emit("discs_engine_worker_doorbells_total", w.doorbells);
        emit("discs_engine_ring_full_stalls_total", w.ring_full_stalls);
        emit("discs_engine_work_chunks_total", w.chunks);
        // LPM footprint gauges: the sealed flat-array bytes vs the
        // build-representation trie bytes (reader lock — a transaction
        // apply may be recompiling the flat form).
        std::size_t compiled_bytes = 0;
        std::size_t trie_bytes = 0;
        {
          std::shared_lock lock(mutex_);
          compiled_bytes = tables_->compiled_memory_bytes();
          trie_bytes = tables_->trie_memory_bytes();
        }
        auto emit_gauge = [&](const char* name, std::size_t v) {
          out.push_back({name, static_cast<double>(v), labels,
                         telemetry::MetricKind::kGauge});
        };
        emit_gauge("discs_lpm_compiled_bytes", compiled_bytes);
        emit_gauge("discs_lpm_trie_bytes", trie_bytes);
      });
  std::unique_lock lock(mutex_);
  telem_ = t;
  telem_.collector = collector;
  telem_.registry = &registry;
  for (auto& shard : shards_) {
    shard->router.set_cmac_occupancy_histogram(&occupancy);
  }
}

void DataPlaneEngine::unbind_metrics() {
  telemetry::MetricsRegistry* registry = nullptr;
  telemetry::MetricsRegistry::CollectorId collector = 0;
  {
    std::unique_lock lock(mutex_);
    registry = telem_.registry;
    collector = telem_.collector;
    telem_ = Telemetry{};
    for (auto& shard : shards_) {
      shard->router.set_cmac_occupancy_histogram(nullptr);
    }
  }
  // Outside the engine lock for the same inversion reason as bind_metrics.
  if (registry != nullptr) registry->remove_collector(collector);
}

DataPlaneEngine::~DataPlaneEngine() {
  stop();
  unbind_metrics();
}

RouterStats DataPlaneEngine::stats() const {
  std::unique_lock lock(mutex_);
  RouterStats total;
  for (const auto& shard : shards_) total += shard->router.stats();
  return total;
}

DataPlaneEngine::WorkerStats DataPlaneEngine::worker_stats() const {
  // Shared lock: the workers_ vector only changes under the writer lock
  // (start/stop), while the per-worker counters are relaxed atomics.
  std::shared_lock lock(mutex_);
  WorkerStats total;
  for (const auto& w : workers_) {
    total.parks += w->parks.load(std::memory_order_relaxed);
    total.wakeups += w->wakeups.load(std::memory_order_relaxed);
  }
  total.doorbells = doorbells_.load(std::memory_order_relaxed);
  total.ring_full_stalls = ring_full_stalls_.load(std::memory_order_relaxed);
  total.chunks = chunks_.load(std::memory_order_relaxed);
  return total;
}

AsNumber DataPlaneEngine::local_as() const {
  return shards_.front()->router.local_as();
}

}  // namespace discs
