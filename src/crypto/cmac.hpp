// AES-CMAC (RFC 4493): the keyed MAC algorithm DISCS uses for per-packet
// e2e marks (paper §V-D), plus the mark-truncation helpers for the IPv4
// (29-bit) and IPv6 (32-bit) packet formats (§V-E, §V-F).
//
// The per-packet cost is 2 AES block encryptions for the 21-byte IPv4 msg
// and 3 for the 40-byte IPv6 msg, so mac() special-cases those two lengths
// with unrolled CBC chains (mac21/mac40), and mac_truncated_batch()
// pipelines independent packets' chains through the AES backend's batch
// entry point — with AES-NI that keeps up to 8 chains in flight.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/aes128.hpp"

namespace discs {

class AesCmac;

/// Number of MAC bits that fit in the IPv4 IPID + Fragment Offset fields.
inline constexpr unsigned kIpv4MarkBits = 29;
/// Number of MAC bits carried by the 4-byte IPv6 DISCS destination option.
inline constexpr unsigned kIpv6MarkBits = 32;

/// One deferred truncated-MAC computation for mac_truncated_batch(). The
/// message is stored inline (both DISCS msg formats fit in 40 bytes) so a
/// batch is one contiguous scratch vector with no pointer chasing.
struct CmacWork {
  /// Longest message the inline buffer holds; both discs_msg sizes fit.
  static constexpr std::size_t kMaxLen = 40;

  const AesCmac* cmac = nullptr;
  std::uint8_t len = 0;    ///< message bytes used, <= kMaxLen
  std::uint8_t bits = 64;  ///< truncation width, in [1, 64]
  std::array<std::uint8_t, kMaxLen> msg{};
  std::uint64_t result = 0;  ///< filled by mac_truncated_batch()
};

/// Computes every item's truncated CMAC, equivalent to
/// `w.result = w.cmac->mac_truncated({w.msg.data(), w.len}, w.bits)` per
/// item, but with independent CBC chains interleaved through the AES
/// backend's batch entry point. Items may reference distinct keys. A
/// one-item span takes the unrolled mac_truncated() path instead.
void mac_truncated_batch(std::span<CmacWork> work);

/// AES-CMAC with a fixed key. Subkeys K1/K2 are derived once at
/// construction; mac() is const and thread-safe afterwards.
class AesCmac {
 public:
  explicit AesCmac(const Key128& key);

  /// Computes the full 128-bit CMAC of `message` (any length, including 0).
  /// The 21- and 40-byte DISCS msg lengths dispatch to mac21/mac40.
  [[nodiscard]] Block128 mac(std::span<const std::uint8_t> message) const;

  /// Single-shot fast paths for the two fixed DISCS msg sizes: the 2-block
  /// (IPv4) and 3-block (IPv6) CBC chains fully unrolled, no span loop.
  /// Bit-identical to mac() on the same bytes.
  [[nodiscard]] Block128 mac21(
      std::span<const std::uint8_t, 21> message) const;
  [[nodiscard]] Block128 mac40(
      std::span<const std::uint8_t, 40> message) const;

  /// Computes the CMAC truncated to the top `bits` bits, returned
  /// right-aligned in a 64-bit integer. RFC 4493 §2.4 sanctions truncation
  /// by taking the most significant bits.
  ///
  /// Contract: `bits` must be in [1, 64]. A 0-bit mark carries no
  /// information and `x >> 64` is undefined, so out-of-range widths are
  /// clamped into the interval (and assert in debug builds).
  [[nodiscard]] std::uint64_t mac_truncated(
      std::span<const std::uint8_t> message, unsigned bits) const;

 private:
  friend void mac_truncated_batch(std::span<CmacWork> work);

  Aes128 cipher_;
  Block128 k1_{};
  Block128 k2_{};
};

/// Deterministic 128-bit key derivation from a 64-bit seed — used by the
/// simulator's controllers so experiments are reproducible. Not a KDF for
/// production use; real deployments draw keys from a CSPRNG.
[[nodiscard]] Key128 derive_key128(std::uint64_t seed);

}  // namespace discs
