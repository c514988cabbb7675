// Shared plumbing of the DISCS benchmark: command-line arguments, the
// benchmark's own seeded generator, the result line, in-memory tracing
// spans, allocation counting and resident-set readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Taken during static initialisation, i.e. right after the process starts;
/// setup_s is measured from here.
[[nodiscard]] Clock::time_point process_start();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the span dump and the .scn file.
  std::string out_dir = ".bench_out";
};

/// SplitMix64 stepped xoshiro256** — the benchmark's own generator, so a
/// change to the program's RNG cannot change the inputs it is fed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& s : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// The benchmark's result: correctness, operation counts and metrics, printed
/// as the single JSON line that ends standard output.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// One checked operation; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A check that is not an operation of the timed phase (setup, drain,
  /// self-test). A failure here makes the whole run incorrect.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return problems_.empty(); }

  /// Human-readable notes go to stderr; only the JSON line goes to stdout.
  void note(const std::string& text) const;
  void print_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// In-memory spans taken around calls into the program (traced runs only).
/// A span holds its name, start, end and parent; the spans of one batch or
/// operation share an id. Written out as Chrome trace_event JSON at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Starts a span; returns its index (or -1 when disabled).
  int begin(const char* name, std::uint64_t op, int parent = -1);
  void end(int span);

  bool write_chrome_json(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::uint64_t op, int parent = -1)
      : tracer_(tracer), span_(tracer.begin(name, op, parent)) {}
  ~Scoped() { tracer_.end(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  /// The span's index, to parent child spans (-1 when disabled).
  [[nodiscard]] int id() const { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

/// Throughput over windows of timed work. The host's SMT co-tenants halve
/// this VM's instruction rate at random, second-long intervals (see README),
/// so a run's total work over total time measures the co-tenant as much as
/// the program. A window closes once it holds `window_s` seconds of timed
/// work; with 0, every add() is one window (callers add one pass or round of
/// identical work). The reported rate is the 90th percentile of the window
/// rates, the rate the program sustains while it has its core, or total over
/// total when a run holds fewer than kMinWindows windows (a high percentile of
/// a few windows is little more than their maximum).
class RateWindows {
 public:
  static constexpr std::size_t kMinWindows = 50;
  explicit RateWindows(double window_s = 0.05) : window_s_(window_s) {}
  void add(double work, double seconds);
  [[nodiscard]] double rate() const;
  [[nodiscard]] double total_rate() const { return total_work_ / total_s_; }
  [[nodiscard]] std::size_t windows() const { return rates_.size(); }

 private:
  double window_s_;
  double work_ = 0, secs_ = 0, total_work_ = 0, total_s_ = 0;
  std::vector<double> rates_;
};

/// Moves the calling thread to the vCPU (of those the process may use) on
/// which a 1 ms high-IPC probe currently runs fastest, i.e. the one whose SMT
/// sibling the host's other tenants leave idle. Called between passes,
/// outside timed regions.
void move_to_fastest_cpu();

/// Heap allocations made by this process while counting is on (the
/// benchmark binary replaces operator new to count them).
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t alloc_count();

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double current_rss_mb();

/// Median and the q-quantile (nearest rank) of `values` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> values, double q);

bool ensure_dir(const std::string& path);

// ---- workloads (one translation unit each) ----
void run_facade_mix(const Args& args, Report& report);
void run_paper_stream(const Args& args, Report& report);
void run_control_churn(const Args& args, Report& report);
/// The oracle's and the crypto backend's own checks; every run calls it once
/// after its timed phase. Returns false (and records why) when a check that
/// must fail did not, or one that must pass did not.
bool run_selftest(Report& report, bool verbose);
/// RFC 4493 known-answer vectors through the AES-CMAC backend in use; prints
/// the backend's name. Called before each packet workload.
bool check_cmac_known_answers(Report& report);

}  // namespace perfbench
