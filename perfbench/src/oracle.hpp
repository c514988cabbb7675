// The benchmark's own model of DISCS (paper §IV-E, §V-B..§V-F), used to
// derive the expected outcome of every packet apart from the program:
//  * prefix-to-AS by longest-prefix match over the dataset's entries, with
//    the benchmark's own per-length hash maps (not the program's LPM);
//  * the function tables each invocation implies (Table I), with all-prefix
//    (union) match semantics;
//  * the tuple rules of §V-B (drop / stamp / verify) and the §V-E/§V-F mark
//    formats, computed with the RFC 4493-checked AES-CMAC over message
//    bytes the benchmark lays out itself.
// The program's key tables are read (never written) so that the oracle can
// predict a verification of an unstamped packet exactly, including the
// 2^-29 chance that its IPID bits match a mark by accident.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/discs_system.hpp"
#include "crypto/cmac.hpp"

namespace perfbench {

using discs::AsNumber;
using discs::BatchPacket;
using discs::DeliveryOutcome;
using discs::Ipv4Address;
using discs::Ipv6Address;
using discs::Key128;
using discs::Prefix4;
using discs::Prefix6;
using discs::Verdict;
inline constexpr AsNumber kNoAs = discs::kNoAs;

/// Table I operations, the benchmark's own bit values.
enum Fn : std::uint8_t {
  kFnDp = 1,
  kFnCdpStamp = 2,
  kFnCdpVerify = 4,
  kFnSp = 8,
  kFnCspStamp = 16,
  kFnCspVerify = 32,
};

/// Prefix -> value with longest-match and all-covering-match queries.
class PrefixMap4 {
 public:
  void insert(const Prefix4& prefix, std::uint32_t value);
  /// OR-merges `bits` into the prefix's value (function tables).
  void merge(const Prefix4& prefix, std::uint32_t bits);
  [[nodiscard]] std::optional<std::uint32_t> longest(Ipv4Address addr) const;
  [[nodiscard]] std::uint32_t covering_or(Ipv4Address addr) const;

 private:
  void note_length(unsigned len);
  std::array<std::unordered_map<std::uint32_t, std::uint32_t>, 33> by_len_;
  std::vector<unsigned> lengths_;  // present lengths, descending
};

class PrefixMap6 {
 public:
  void insert(const Prefix6& prefix, std::uint32_t value);
  void merge(const Prefix6& prefix, std::uint32_t bits);
  [[nodiscard]] std::optional<std::uint32_t> longest(const Ipv6Address& addr) const;
  [[nodiscard]] std::uint32_t covering_or(const Ipv6Address& addr) const;

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k) const {
      return std::hash<std::uint64_t>{}(k.first * 0x9e3779b97f4a7c15ull ^ k.second);
    }
  };
  using Map = std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                                 std::uint32_t, KeyHash>;
  static std::pair<std::uint64_t, std::uint64_t> masked(const Ipv6Address& a,
                                                        unsigned len);
  std::map<unsigned, Map, std::greater<>> by_len_;
};

/// Truncated marks, laid out from the paper (§V-E: 21-byte IPv4 message,
/// top 29 bits; §V-F: 40-byte IPv6 message, top 32 bits).
[[nodiscard]] std::uint32_t own_mark4(const discs::AesCmac& mac,
                                      const discs::Ipv4Packet& packet);
[[nodiscard]] std::uint32_t own_mark6(const discs::AesCmac& mac,
                                      const discs::Ipv6Packet& packet);

/// A random address inside `prefix`.
[[nodiscard]] Ipv4Address address_in(const Prefix4& prefix, std::uint64_t bits);
[[nodiscard]] Ipv6Address address_in(const Prefix6& prefix, std::uint64_t bits);

class Oracle {
 public:
  explicit Oracle(const discs::InternetDataset& dataset);

  [[nodiscard]] AsNumber origin(Ipv4Address addr) const;
  [[nodiscard]] AsNumber origin(const Ipv6Address& addr) const;
  [[nodiscard]] AsNumber origin_of_packet_src(const BatchPacket& p) const;
  [[nodiscard]] AsNumber origin_of_packet_dst(const BatchPacket& p) const;
  /// Every entry listing `as` among its origins.
  [[nodiscard]] const std::vector<Prefix4>& prefixes_of(AsNumber as) const;
  [[nodiscard]] const std::vector<Prefix6>& prefixes6_of(AsNumber as) const;
  /// Entries whose longest-match origin is `as` (addresses drawn inside
  /// them resolve back to `as` unless a more-specific carves them out).
  [[nodiscard]] const std::vector<Prefix4>& primary_prefixes_of(AsNumber as) const;

  /// DASes; all of them peer with each other (the workloads check that).
  void add_das(AsNumber as) { das_.insert(as); }
  [[nodiscard]] bool is_das(AsNumber as) const { return das_.contains(as); }
  [[nodiscard]] const std::set<AsNumber>& dases() const { return das_; }

  /// `victim` invokes DP+CDP (direct) or SP+CSP (reflection) for one of its
  /// prefixes; every other DAS executes the peer side.
  void invoke(AsNumber victim, const Prefix4& prefix, bool reflection);
  void invoke(AsNumber victim, const Prefix6& prefix, bool reflection);
  void invoke_all(AsNumber victim, bool reflection);

  /// Keys the program's tables hold: `stamping` = Key-S at `at` for `peer`
  /// (active only); otherwise Key-V at `at` for `peer` (active, then grace).
  using KeyLookup =
      std::function<std::vector<Key128>(AsNumber at, AsNumber peer, bool stamping)>;
  void set_keys(KeyLookup keys) {
    keys_ = std::move(keys);
    macs_.clear();
  }

  struct Out {
    Verdict verdict = Verdict::kPass;
    bool stamped = false;
  };
  /// §V-B out-tuple at DAS `das`.
  [[nodiscard]] Out outbound(AsNumber das, const BatchPacket& packet) const;
  /// §V-B in-tuple plus verification at DAS `das`; `stamped_by` is the DAS
  /// that stamped the packet on its way out (kNoAs: carries no stamp).
  [[nodiscard]] Verdict inbound(AsNumber das, const BatchPacket& packet,
                                AsNumber stamped_by) const;

  struct Expected {
    DeliveryOutcome outcome = DeliveryOutcome::kDelivered;
    Verdict source = Verdict::kPass;
    Verdict destination = Verdict::kPass;
  };
  /// The facade journey of DiscsSystem::send_packet / send_batch.
  [[nodiscard]] Expected send(AsNumber origin_as, const BatchPacket& packet) const;

 private:
  struct Tables {
    PrefixMap4 in_src4, in_dst4, out_src4, out_dst4;
    PrefixMap6 in_src6, in_dst6, out_src6, out_dst6;
  };
  template <typename Prefix>
  void invoke_impl(AsNumber victim, const Prefix& prefix, bool reflection);
  [[nodiscard]] const discs::AesCmac* mac_for(const Key128& key) const;
  [[nodiscard]] std::uint32_t mark_of(const BatchPacket& packet,
                                      const Key128& key) const;

  PrefixMap4 pfx4_;
  PrefixMap6 pfx6_;
  std::unordered_map<AsNumber, std::vector<Prefix4>> prefixes_;
  std::unordered_map<AsNumber, std::vector<Prefix4>> primary_;
  std::unordered_map<AsNumber, std::vector<Prefix6>> prefixes6_;
  std::set<AsNumber> das_;
  std::map<AsNumber, Tables> tables_;
  KeyLookup keys_;
  mutable std::map<Key128, std::unique_ptr<discs::AesCmac>> macs_;
};

/// The checks the workloads apply to the program's outputs (kept here so
/// the self-test can show that each of them fails on a corrupted value).
[[nodiscard]] bool outcome_matches(const discs::DeliveryResult& result,
                                   const Oracle::Expected& expected, AsNumber origin,
                                   AsNumber dst);

/// Per-stage verdict counts of the paper_stream engines.
struct StageCounts {
  std::uint64_t stamped = 0, dp_dropped = 0, out_passed = 0;
  std::uint64_t verified = 0, cdp_dropped = 0, in_passed = 0;
  friend bool operator==(const StageCounts&, const StageCounts&) = default;
};
/// Counts from two RouterStats snapshots (outbound engine, inbound engine).
[[nodiscard]] StageCounts stage_counts(const discs::RouterStats& out_before,
                                       const discs::RouterStats& out_after,
                                       const discs::RouterStats& in_before,
                                       const discs::RouterStats& in_after);

/// Key lookup over a world's controllers (read-only table access).
[[nodiscard]] Oracle::KeyLookup world_keys(
    std::function<const discs::Controller*(AsNumber)> controller);

}  // namespace perfbench
