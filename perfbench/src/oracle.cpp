#include "oracle.hpp"

#include <stdexcept>

namespace perfbench {
namespace {

std::uint32_t mask4(std::uint32_t bits, unsigned len) {
  return len == 0 ? 0 : bits & (len >= 32 ? ~0u : ~0u << (32 - len));
}

const std::vector<Prefix4> kNoPrefixes;
const std::vector<Prefix6> kNoPrefixes6;

}  // namespace

void PrefixMap4::note_length(unsigned len) {
  for (const unsigned l : lengths_) {
    if (l == len) return;
  }
  lengths_.push_back(len);
  std::sort(lengths_.begin(), lengths_.end(), std::greater<>());
}

void PrefixMap4::insert(const Prefix4& prefix, std::uint32_t value) {
  by_len_[prefix.length()][prefix.address().bits()] = value;
  note_length(prefix.length());
}

void PrefixMap4::merge(const Prefix4& prefix, std::uint32_t bits) {
  by_len_[prefix.length()][prefix.address().bits()] |= bits;
  note_length(prefix.length());
}

std::optional<std::uint32_t> PrefixMap4::longest(Ipv4Address addr) const {
  for (const unsigned len : lengths_) {
    const auto& m = by_len_[len];
    const auto it = m.find(mask4(addr.bits(), len));
    if (it != m.end()) return it->second;
  }
  return std::nullopt;
}

std::uint32_t PrefixMap4::covering_or(Ipv4Address addr) const {
  std::uint32_t bits = 0;
  for (const unsigned len : lengths_) {
    const auto& m = by_len_[len];
    const auto it = m.find(mask4(addr.bits(), len));
    if (it != m.end()) bits |= it->second;
  }
  return bits;
}

std::pair<std::uint64_t, std::uint64_t> PrefixMap6::masked(const Ipv6Address& a,
                                                           unsigned len) {
  std::uint64_t hi = 0, lo = 0;
  for (int i = 0; i < 8; ++i) {
    hi = (hi << 8) | a.bytes()[static_cast<std::size_t>(i)];
    lo = (lo << 8) | a.bytes()[static_cast<std::size_t>(8 + i)];
  }
  if (len < 64) {
    hi = len == 0 ? 0 : hi & (~0ull << (64 - len));
    lo = 0;
  } else if (len < 128) {
    lo = len == 64 ? 0 : lo & (~0ull << (128 - len));
  }
  return {hi, lo};
}

void PrefixMap6::insert(const Prefix6& prefix, std::uint32_t value) {
  by_len_[prefix.length()][masked(prefix.address(), prefix.length())] = value;
}

void PrefixMap6::merge(const Prefix6& prefix, std::uint32_t bits) {
  by_len_[prefix.length()][masked(prefix.address(), prefix.length())] |= bits;
}

std::optional<std::uint32_t> PrefixMap6::longest(const Ipv6Address& addr) const {
  for (const auto& [len, m] : by_len_) {
    const auto it = m.find(masked(addr, len));
    if (it != m.end()) return it->second;
  }
  return std::nullopt;
}

std::uint32_t PrefixMap6::covering_or(const Ipv6Address& addr) const {
  std::uint32_t bits = 0;
  for (const auto& [len, m] : by_len_) {
    const auto it = m.find(masked(addr, len));
    if (it != m.end()) bits |= it->second;
  }
  return bits;
}

std::uint32_t own_mark4(const discs::AesCmac& mac, const discs::Ipv4Packet& p) {
  // §V-E: Version/IHL, Total Length, Flags (+5 zero bits), Protocol, source,
  // destination, first 8 payload bytes; the mark is the top 29 MAC bits.
  std::array<std::uint8_t, 21> msg{};
  const auto& h = p.header;
  msg[0] = 0x45;
  msg[1] = static_cast<std::uint8_t>(h.total_length >> 8);
  msg[2] = static_cast<std::uint8_t>(h.total_length);
  msg[3] = static_cast<std::uint8_t>(h.flags << 5);
  msg[4] = h.protocol;
  for (int i = 0; i < 4; ++i) {
    msg[static_cast<std::size_t>(5 + i)] = static_cast<std::uint8_t>(h.src.bits() >> (24 - 8 * i));
    msg[static_cast<std::size_t>(9 + i)] = static_cast<std::uint8_t>(h.dst.bits() >> (24 - 8 * i));
  }
  for (std::size_t i = 0; i < 8 && i < p.payload.size(); ++i) msg[13 + i] = p.payload[i];
  const discs::Block128 tag = mac.mac(msg);
  const std::uint32_t top = (std::uint32_t{tag[0]} << 24) | (std::uint32_t{tag[1]} << 16) |
                            (std::uint32_t{tag[2]} << 8) | tag[3];
  return top >> 3;
}

std::uint32_t own_mark6(const discs::AesCmac& mac, const discs::Ipv6Packet& p) {
  // §V-F: source, destination, first 8 payload bytes; top 32 MAC bits.
  std::array<std::uint8_t, 40> msg{};
  for (std::size_t i = 0; i < 16; ++i) {
    msg[i] = p.header.src.bytes()[i];
    msg[16 + i] = p.header.dst.bytes()[i];
  }
  for (std::size_t i = 0; i < 8 && i < p.payload.size(); ++i) msg[32 + i] = p.payload[i];
  const discs::Block128 tag = mac.mac(msg);
  return (std::uint32_t{tag[0]} << 24) | (std::uint32_t{tag[1]} << 16) |
         (std::uint32_t{tag[2]} << 8) | tag[3];
}

Ipv4Address address_in(const Prefix4& prefix, std::uint64_t bits) {
  const unsigned len = prefix.length();
  const std::uint32_t host = len >= 32 ? 0 : static_cast<std::uint32_t>(bits) & (~0u >> len);
  return Ipv4Address(prefix.address().bits() | host);
}

Ipv6Address address_in(const Prefix6& prefix, std::uint64_t bits) {
  std::array<std::uint8_t, 16> b = prefix.address().bytes();
  for (unsigned i = 0; i < 128; ++i) {
    if (i < prefix.length()) continue;
    const std::uint8_t bit = static_cast<std::uint8_t>((bits >> (i % 64)) & 1u);
    b[i / 8] = static_cast<std::uint8_t>(b[i / 8] | (bit << (7 - i % 8)));
  }
  return Ipv6Address(b);
}

Oracle::Oracle(const discs::InternetDataset& dataset) {
  for (const discs::PrefixOrigin& e : dataset.entries()) {
    pfx4_.insert(e.prefix, e.origins.front());
    for (const AsNumber as : e.origins) prefixes_[as].push_back(e.prefix);
    primary_[e.origins.front()].push_back(e.prefix);
  }
  for (const discs::PrefixOrigin6& e : dataset.entries6()) {
    pfx6_.insert(e.prefix, e.origins.front());
    for (const AsNumber as : e.origins) prefixes6_[as].push_back(e.prefix);
  }
}

AsNumber Oracle::origin(Ipv4Address addr) const {
  return pfx4_.longest(addr).value_or(kNoAs);
}
AsNumber Oracle::origin(const Ipv6Address& addr) const {
  return pfx6_.longest(addr).value_or(kNoAs);
}
AsNumber Oracle::origin_of_packet_src(const BatchPacket& p) const {
  return std::visit([&](const auto& pk) { return origin(pk.header.src); }, p);
}
AsNumber Oracle::origin_of_packet_dst(const BatchPacket& p) const {
  return std::visit([&](const auto& pk) { return origin(pk.header.dst); }, p);
}

const std::vector<Prefix4>& Oracle::prefixes_of(AsNumber as) const {
  const auto it = prefixes_.find(as);
  return it == prefixes_.end() ? kNoPrefixes : it->second;
}
const std::vector<Prefix6>& Oracle::prefixes6_of(AsNumber as) const {
  const auto it = prefixes6_.find(as);
  return it == prefixes6_.end() ? kNoPrefixes6 : it->second;
}
const std::vector<Prefix4>& Oracle::primary_prefixes_of(AsNumber as) const {
  const auto it = primary_.find(as);
  return it == primary_.end() ? kNoPrefixes : it->second;
}

template <typename Prefix>
void Oracle::invoke_impl(AsNumber victim, const Prefix& prefix, bool reflection) {
  constexpr bool v4 = std::is_same_v<Prefix, Prefix4>;
  const auto merge = [&](AsNumber at, auto member4, auto member6, std::uint32_t fn) {
    Tables& t = tables_[at];
    if constexpr (v4) {
      (t.*member4).merge(prefix, fn);
    } else {
      (t.*member6).merge(prefix, fn);
    }
  };
  // Victim side (Table I, non-bold rows).
  if (reflection) {
    merge(victim, &Tables::out_src4, &Tables::out_src6, kFnCspStamp);
  } else {
    merge(victim, &Tables::in_dst4, &Tables::in_dst6, kFnCdpVerify);
  }
  // Peer side: every other DAS.
  for (const AsNumber peer : das_) {
    if (peer == victim) continue;
    if (reflection) {
      merge(peer, &Tables::out_src4, &Tables::out_src6, kFnSp);
      merge(peer, &Tables::in_src4, &Tables::in_src6, kFnCspVerify);
    } else {
      merge(peer, &Tables::out_dst4, &Tables::out_dst6, kFnDp | kFnCdpStamp);
    }
  }
}

void Oracle::invoke(AsNumber victim, const Prefix4& prefix, bool reflection) {
  invoke_impl(victim, prefix, reflection);
}
void Oracle::invoke(AsNumber victim, const Prefix6& prefix, bool reflection) {
  invoke_impl(victim, prefix, reflection);
}
void Oracle::invoke_all(AsNumber victim, bool reflection) {
  for (const Prefix4& p : prefixes_of(victim)) invoke(victim, p, reflection);
  for (const Prefix6& p : prefixes6_of(victim)) invoke(victim, p, reflection);
}

const discs::AesCmac* Oracle::mac_for(const Key128& key) const {
  auto& slot = macs_[key];
  if (!slot) slot = std::make_unique<discs::AesCmac>(key);
  return slot.get();
}

std::uint32_t Oracle::mark_of(const BatchPacket& packet, const Key128& key) const {
  const discs::AesCmac* mac = mac_for(key);
  return std::visit(
      [&](const auto& p) -> std::uint32_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>, discs::Ipv4Packet>) {
          return own_mark4(*mac, p);
        } else {
          return own_mark6(*mac, p);
        }
      },
      packet);
}

Oracle::Out Oracle::outbound(AsNumber das, const BatchPacket& packet) const {
  Out out;
  const auto t = tables_.find(das);
  if (t == tables_.end()) return out;
  std::uint32_t fs = 0, fd = 0;
  std::visit(
      [&](const auto& p) {
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>, discs::Ipv4Packet>) {
          fs = t->second.out_src4.covering_or(p.header.src);
          fd = t->second.out_dst4.covering_or(p.header.dst);
        } else {
          fs = t->second.out_src6.covering_or(p.header.src);
          fd = t->second.out_dst6.covering_or(p.header.dst);
        }
      },
      packet);
  const AsNumber src_as = origin_of_packet_src(packet);
  if (((fs & kFnSp) != 0 || (fd & kFnDp) != 0) && src_as != das) {
    out.verdict = Verdict::kDropFiltered;
    return out;
  }
  const AsNumber dst_as = origin_of_packet_dst(packet);
  const bool key = dst_as != das && is_das(dst_as) && is_das(das);
  out.stamped = key && ((fs & kFnCspStamp) != 0 || (fd & kFnCdpStamp) != 0);
  return out;
}

Verdict Oracle::inbound(AsNumber das, const BatchPacket& packet,
                        AsNumber stamped_by) const {
  const auto t = tables_.find(das);
  if (t == tables_.end()) return Verdict::kPass;
  std::uint32_t fs = 0, fd = 0;
  std::visit(
      [&](const auto& p) {
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>, discs::Ipv4Packet>) {
          fs = t->second.in_src4.covering_or(p.header.src);
          fd = t->second.in_dst4.covering_or(p.header.dst);
        } else {
          fs = t->second.in_src6.covering_or(p.header.src);
          fd = t->second.in_dst6.covering_or(p.header.dst);
        }
      },
      packet);
  if ((fs & kFnCspVerify) == 0 && (fd & kFnCdpVerify) == 0) return Verdict::kPass;
  const AsNumber src_as = origin_of_packet_src(packet);
  if (src_as == das || !is_das(src_as)) return Verdict::kPass;  // no Key-V
  if (!keys_) throw std::logic_error("oracle: verification needs the key tables");
  const std::vector<Key128> verify = keys_(das, src_as, /*stamping=*/false);
  if (verify.empty()) throw std::logic_error("oracle: peer has no Key-V entry");
  // The mark the packet carries: the stamper's, or the generator's bits.
  std::optional<std::uint32_t> carried;
  if (stamped_by != kNoAs) {
    const AsNumber dst_as = origin_of_packet_dst(packet);
    const std::vector<Key128> stamp = keys_(stamped_by, dst_as, /*stamping=*/true);
    if (stamp.empty()) throw std::logic_error("oracle: stamper has no Key-S entry");
    carried = mark_of(packet, stamp.front());
  } else if (const auto* p4 = std::get_if<discs::Ipv4Packet>(&packet)) {
    carried = (std::uint32_t{p4->header.identification} << 13) | p4->header.fragment_offset;
  }
  if (!carried) return Verdict::kDropSpoofed;  // IPv6 without the option
  for (const Key128& key : verify) {
    if (mark_of(packet, key) == *carried) return Verdict::kPass;
  }
  return Verdict::kDropSpoofed;
}

Oracle::Expected Oracle::send(AsNumber origin_as, const BatchPacket& packet) const {
  Expected e;
  const AsNumber dst_as = origin_of_packet_dst(packet);
  if (dst_as == kNoAs) {
    e.outcome = DeliveryOutcome::kUnroutable;
    return e;
  }
  if (origin_as == dst_as) return e;  // intra-AS: never crosses a border
  AsNumber stamped_by = kNoAs;
  if (is_das(origin_as)) {
    const Out out = outbound(origin_as, packet);
    e.source = out.verdict;
    if (out.verdict != Verdict::kPass) {
      e.outcome = DeliveryOutcome::kDroppedAtSource;
      return e;
    }
    if (out.stamped) stamped_by = origin_as;
  }
  if (is_das(dst_as)) {
    e.destination = inbound(dst_as, packet, stamped_by);
    if (e.destination != Verdict::kPass) e.outcome = DeliveryOutcome::kDroppedAtDestination;
  }
  return e;
}

bool outcome_matches(const discs::DeliveryResult& r, const Oracle::Expected& e,
                     AsNumber origin, AsNumber dst) {
  if (r.outcome != e.outcome || r.source_verdict != e.source ||
      r.destination_verdict != e.destination) {
    return false;
  }
  if (e.outcome == DeliveryOutcome::kUnroutable) return true;
  return !r.path.empty() && r.path.front() == origin && r.path.back() == dst;
}

StageCounts stage_counts(const discs::RouterStats& ob, const discs::RouterStats& oa,
                         const discs::RouterStats& ib, const discs::RouterStats& ia) {
  StageCounts c;
  c.stamped = oa.out_stamped - ob.out_stamped;
  c.dp_dropped = oa.out_dropped - ob.out_dropped;
  c.out_passed = (oa.out_processed - ob.out_processed) - c.dp_dropped;
  c.verified = ia.in_verified - ib.in_verified;
  c.cdp_dropped = ia.in_spoof_dropped - ib.in_spoof_dropped;
  c.in_passed = (ia.in_processed - ib.in_processed) - c.cdp_dropped;
  return c;
}

Oracle::KeyLookup world_keys(
    std::function<const discs::Controller*(AsNumber)> controller) {
  return [controller = std::move(controller)](AsNumber at, AsNumber peer,
                                              bool stamping) {
    std::vector<Key128> keys;
    const discs::Controller* c = controller(at);
    if (c == nullptr) return keys;
    const discs::KeyTable& table = stamping ? c->tables().key_s : c->tables().key_v;
    if (const auto* entry = table.find(peer)) {
      keys.push_back(entry->active);
      if (!stamping && entry->previous) keys.push_back(*entry->previous);
    }
    return keys;
  };
}

}  // namespace perfbench
