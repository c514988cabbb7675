// Driving a world's control plane from outside: the benchmark steps the
// EventLoop itself, times each step() and each protocol call, and probes the
// peers' sealed tables (Controller::tables()) to see when an invoked prefix
// is enforced — time-to-protection on the simulated clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "oracle.hpp"

namespace perfbench {

class LoopStepper {
 public:
  LoopStepper(discs::EventLoop& loop, std::vector<discs::Controller*> controllers);

  /// `victim` has just invoked protection of `prefix`; every other
  /// controller must come to enforce it (DP+CDP-stamp in Out-Dst for a
  /// direct invocation, SP in Out-Src plus CSP-verify in In-Src for a
  /// reflection one). The invocation time is the loop's now().
  void expect_protection(AsNumber victim, const discs::VictimPrefix& prefix,
                         bool reflection);

  /// Runs every event due at or before `deadline` one step() at a time,
  /// timing each step and probing the tables of peers that received a
  /// con-rou delivery once the simulated clock moves past its timestamp.
  void run_until(discs::SimTime deadline);

  /// Runs `fn` (a protocol call such as invoke) and adds its host time.
  template <typename Fn>
  auto timed(Fn&& fn) {
    const auto t0 = Clock::now();
    struct Stop {
      LoopStepper* self;
      Clock::time_point t0;
      ~Stop() { self->busy_s_ += seconds_between(t0, Clock::now()); }
    } stop{this, t0};
    return fn();
  }

  [[nodiscard]] double busy_s() const { return busy_s_; }
  [[nodiscard]] discs::SimTime now() const { return loop_.now(); }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] double step_s() const { return step_s_; }
  /// One sample per (prefix, peer): simulated milliseconds.
  [[nodiscard]] const std::vector<double>& ttp_ms() const { return ttp_ms_; }
  [[nodiscard]] std::size_t open_probes() const;

 private:
  struct Probe {
    discs::VictimPrefix prefix;
    bool reflection;
    discs::SimTime invoked_at;
  };
  void probe(std::size_t peer_index);
  [[nodiscard]] bool enforced(const discs::Controller& peer, const Probe& p) const;

  discs::EventLoop& loop_;
  std::vector<discs::Controller*> controllers_;
  std::vector<std::uint64_t> delivered_;  // con-rou deliveries seen, per peer
  std::vector<std::vector<Probe>> open_;  // per peer
  std::vector<bool> dirty_;
  double busy_s_ = 0;
  double step_s_ = 0;
  std::uint64_t events_ = 0;
  std::vector<double> ttp_ms_;
};

/// True when every pair of `controllers` is peered both ways.
[[nodiscard]] bool full_mesh(const std::vector<discs::Controller*>& controllers);

/// Key agreement across every ordered pair: a packet stamped with a's Key-S
/// for b verifies under b's Key-V for a (active or grace), computed with the
/// benchmark's own mark layout. Returns the number of pairs that failed.
[[nodiscard]] std::size_t key_mismatches(const std::vector<discs::Controller*>& controllers,
                                         const Oracle& oracle, Rng& rng);

/// An IPv4 UDP packet with a random IPID (the bits an unstamped packet
/// "carries" as its mark) and an 8-byte payload.
[[nodiscard]] discs::Ipv4Packet make_v4(Ipv4Address src, Ipv4Address dst, Rng& rng);
[[nodiscard]] discs::Ipv6Packet make_v6(const Ipv6Address& src, const Ipv6Address& dst,
                                        Rng& rng);

/// Drawing addresses that resolve (by the oracle's LPM) to a chosen AS.
class AddressPicker {
 public:
  explicit AddressPicker(const Oracle& oracle) : oracle_(oracle) {}
  /// A v4 address whose longest-match origin is `as`; nullopt when the AS
  /// has no prefix that is not wholly carved out.
  [[nodiscard]] std::optional<Ipv4Address> v4_of(AsNumber as, Rng& rng) const;
  [[nodiscard]] std::optional<Ipv6Address> v6_of(AsNumber as, Rng& rng) const;

 private:
  const Oracle& oracle_;
};

/// Summary line for stderr.
[[nodiscard]] std::string fmt(const char* format, ...);

}  // namespace perfbench
