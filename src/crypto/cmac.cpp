#include "crypto/cmac.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"

namespace discs {
namespace {

// Doubling in GF(2^128) with the CMAC polynomial (RFC 4493 §2.3).
Block128 gf_double(const Block128& in) {
  Block128 out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const std::uint8_t b = in[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>((b << 1) | carry);
    carry = b >> 7;
  }
  if (carry != 0) out[15] ^= 0x87;
  return out;
}

void xor_into(Block128& dst, const Block128& src) {
  for (std::size_t i = 0; i < 16; ++i) dst[i] ^= src[i];
}

// RFC 4493 §2.4 MSB truncation with the [1, 64] width contract enforced
// (`top >> 64` would be undefined for bits == 0).
std::uint64_t truncate_mac(const Block128& full, unsigned bits) {
  assert(bits >= 1 && bits <= 64);
  bits = std::clamp(bits, 1u, 64u);
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < 8; ++i) top = (top << 8) | full[i];
  return top >> (64u - bits);
}

}  // namespace

AesCmac::AesCmac(const Key128& key) : cipher_(key) {
  const Block128 l = cipher_.encrypt(Block128{});
  k1_ = gf_double(l);
  k2_ = gf_double(k1_);
}

Block128 AesCmac::mac(std::span<const std::uint8_t> message) const {
  // The two fixed DISCS msg sizes take the unrolled chains.
  if (message.size() == 21) return mac21(message.first<21>());
  if (message.size() == 40) return mac40(message.first<40>());

  const std::size_t len = message.size();
  // Number of blocks, counting an empty message as one (padded) block.
  const std::size_t n = len == 0 ? 1 : (len + 15) / 16;
  const bool last_complete = len != 0 && len % 16 == 0;

  Block128 x{};  // running CBC state
  for (std::size_t i = 0; i + 1 < n; ++i) {
    Block128 block{};
    for (std::size_t j = 0; j < 16; ++j) block[j] = message[16 * i + j];
    xor_into(x, block);
    x = cipher_.encrypt(x);
  }

  Block128 last{};
  if (last_complete) {
    for (std::size_t j = 0; j < 16; ++j) last[j] = message[16 * (n - 1) + j];
    xor_into(last, k1_);
  } else {
    const std::size_t rem = len - 16 * (n - 1);
    for (std::size_t j = 0; j < rem; ++j) last[j] = message[16 * (n - 1) + j];
    last[rem] = 0x80;  // 10^i padding
    xor_into(last, k2_);
  }
  xor_into(x, last);
  return cipher_.encrypt(x);
}

Block128 AesCmac::mac21(std::span<const std::uint8_t, 21> message) const {
  // Two-block chain: x = E(M[0..16)); last = M[16..21) || 10^i, ^= K2.
  Block128 x;
  std::copy(message.begin(), message.begin() + 16, x.begin());
  x = cipher_.encrypt(x);
  for (std::size_t j = 0; j < 5; ++j) x[j] ^= message[16 + j];
  x[5] ^= 0x80;
  xor_into(x, k2_);
  return cipher_.encrypt(x);
}

Block128 AesCmac::mac40(std::span<const std::uint8_t, 40> message) const {
  // Three-block chain: two full blocks, then 8 bytes || 10^i, ^= K2.
  Block128 x;
  std::copy(message.begin(), message.begin() + 16, x.begin());
  x = cipher_.encrypt(x);
  for (std::size_t j = 0; j < 16; ++j) x[j] ^= message[16 + j];
  x = cipher_.encrypt(x);
  for (std::size_t j = 0; j < 8; ++j) x[j] ^= message[32 + j];
  x[8] ^= 0x80;
  xor_into(x, k2_);
  return cipher_.encrypt(x);
}

std::uint64_t AesCmac::mac_truncated(std::span<const std::uint8_t> message,
                                     unsigned bits) const {
  return truncate_mac(mac(message), bits);
}

void mac_truncated_batch(std::span<CmacWork> work) {
  // One item has no chain to interleave with: the unrolled single-shot
  // path beats one lane of the pipeline (the router's per-packet walk).
  if (work.size() == 1) {
    CmacWork& w = work.front();
    w.result = w.cmac->mac_truncated({w.msg.data(), w.len}, w.bits);
    return;
  }
  // Up to 8 independent CBC chains advance in lockstep: round r XORs every
  // still-active lane's block r into its state, then one encrypt_batch call
  // pushes all active states through the AES backend together.
  constexpr std::size_t kLanes = 8;
  for (std::size_t base = 0; base < work.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, work.size() - base);
    Block128 state[kLanes]{};
    unsigned nblocks[kLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      const CmacWork& w = work[base + l];
      nblocks[l] = w.len == 0 ? 1u : (w.len + 15u) / 16u;
    }
    for (unsigned round = 0;; ++round) {
      const Aes128* ciphers[kLanes];
      Block128* blocks[kLanes];
      std::size_t active = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (nblocks[l] <= round) continue;
        const CmacWork& w = work[base + l];
        Block128& x = state[l];
        const std::uint8_t* p = w.msg.data() + 16 * round;
        if (round + 1 < nblocks[l]) {
          for (std::size_t j = 0; j < 16; ++j) x[j] ^= p[j];
        } else {  // last block: pad + subkey per RFC 4493 §2.4
          const std::size_t rem = w.len - 16u * round;
          if (rem == 16) {
            for (std::size_t j = 0; j < 16; ++j) x[j] ^= p[j];
            xor_into(x, w.cmac->k1_);
          } else {
            for (std::size_t j = 0; j < rem; ++j) x[j] ^= p[j];
            x[rem] ^= 0x80;
            xor_into(x, w.cmac->k2_);
          }
        }
        ciphers[active] = &w.cmac->cipher_;
        blocks[active] = &x;
        ++active;
      }
      if (active == 0) break;
      Aes128::encrypt_batch(ciphers, blocks, active);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      work[base + l].result = truncate_mac(state[l], work[base + l].bits);
    }
  }
}

Key128 derive_key128(std::uint64_t seed) {
  SplitMix64 sm(seed);
  Key128 key{};
  for (int half = 0; half < 2; ++half) {
    const std::uint64_t w = sm.next();
    for (int i = 0; i < 8; ++i) {
      key[static_cast<std::size_t>(8 * half + i)] =
          static_cast<std::uint8_t>(w >> (56 - 8 * i));
    }
  }
  return key;
}

}  // namespace discs
