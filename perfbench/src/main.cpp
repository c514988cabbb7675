// discs_perfbench — the DISCS benchmark stepper.
//
//   discs_perfbench --workload facade_mix|paper_stream|control_churn
//                   --seed N --seconds S --trace 0|1 [--out DIR]
//   discs_perfbench --selftest
//
// Prints notes on stderr and, as the last line of stdout, one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <span>
#include <string>

#include "bench.hpp"
#include "crypto/cmac.hpp"

namespace perfbench {
namespace {

const Clock::time_point g_start = Clock::now();
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

Clock::time_point process_start() { return g_start; }

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  problems_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::note(const std::string& text) const {
  std::fprintf(stderr, "%s\n", text.c_str());
}

void Report::print_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Tracer::begin(const char* name, std::uint64_t op, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, op, parent, Clock::now(), {}});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - g_start).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
        << ", \"dur\": " << dur << ", \"args\": {\"op\": " << s.op
        << ", \"span\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[idx];
}

void RateWindows::add(double work, double seconds) {
  work_ += work;
  secs_ += seconds;
  total_work_ += work;
  total_s_ += seconds;
  if (secs_ >= window_s_) {
    rates_.push_back(work_ / secs_);
    work_ = secs_ = 0;
  }
}

double RateWindows::rate() const {
  if (rates_.size() < kMinWindows) return total_rate();
  return quantile(rates_, 0.9);
}

namespace {

std::span<discs::CmacWork> probe_work() {
  static const discs::AesCmac mac(discs::derive_key128(1));
  static std::vector<discs::CmacWork> work = [] {
    std::vector<discs::CmacWork> w(256);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i].cmac = &mac;
      w[i].len = 21;
      w[i].bits = 29;
      w[i].msg[0] = static_cast<std::uint8_t>(i);
    }
    return w;
  }();
  return work;
}

}  // namespace

void move_to_fastest_cpu() {
  static cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  int best = -1;
  double best_rate = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    // Pipelined AES-CMAC: high IPC, like the program's hot loops, so a busy
    // SMT sibling shows as a lower rate.
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      discs::mac_truncated_batch(probe_work());
      n += probe_work().size();
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < 0.001);
    const double rate = static_cast<double>(n) / elapsed;
    if (rate > best_rate) {
      best_rate = rate;
      best = cpu;
    }
  }
  cpu_set_t target = allowed;
  if (best >= 0) {
    CPU_ZERO(&target);
    CPU_SET(best, &target);
  }
  sched_setaffinity(0, sizeof(target), &target);
}

bool ensure_dir(const std::string& path) {
  return mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

}  // namespace perfbench

// Allocation counting for core.allocs_per_pkt: every operator new of the
// process goes through here; the counter moves only while counting is on.
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: discs_perfbench --workload facade_mix|paper_stream|"
               "control_churn --seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       discs_perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = value() != "0";
      } else if (flag == "--out") {
        args.out_dir = value();
      } else if (flag == "--selftest") {
        selftest = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  Report report;
  try {
    if (selftest) {
      const bool ok = check_cmac_known_answers(report) && run_selftest(report, true);
      report.print_json();
      return ok && report.correct() ? 0 : 1;
    }
    if (args.seconds <= 0) return usage();
    if (args.workload == "facade_mix") {
      run_facade_mix(args, report);
    } else if (args.workload == "paper_stream") {
      run_paper_stream(args, report);
    } else if (args.workload == "control_churn") {
      run_control_churn(args, report);
    } else {
      return usage();
    }
    run_selftest(report, false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  if (report.attempted() == 0) report.check(false, "no operation attempted");
  report.print_json();
  return 0;
}
