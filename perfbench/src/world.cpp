#include "world.hpp"

#include <cstdarg>
#include <cstdio>

namespace perfbench {

LoopStepper::LoopStepper(discs::EventLoop& loop,
                         std::vector<discs::Controller*> controllers)
    : loop_(loop),
      controllers_(std::move(controllers)),
      delivered_(controllers_.size(), 0),
      open_(controllers_.size()),
      dirty_(controllers_.size(), false) {
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    delivered_[i] = controllers_[i]->con_rou().stats().delivered;
  }
}

void LoopStepper::expect_protection(AsNumber victim, const discs::VictimPrefix& prefix,
                                    bool reflection) {
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    if (controllers_[i]->as_number() == victim) continue;
    open_[i].push_back({prefix, reflection, loop_.now()});
  }
}

bool LoopStepper::enforced(const discs::Controller& peer, const Probe& p) const {
  const discs::RouterTables& t = peer.tables();
  const discs::SimTime now = loop_.now();
  return std::visit(
      [&](const auto& prefix) {
        const auto& addr = prefix.address();
        if (p.reflection) {
          return discs::has_function(t.out_src.lookup(addr, now).functions,
                                     discs::DefenseFunction::kSp) &&
                 discs::has_function(t.in_src.lookup(addr, now).functions,
                                     discs::DefenseFunction::kCspVerify);
        }
        const discs::FunctionSet f = t.out_dst.lookup(addr, now).functions;
        return discs::has_function(f, discs::DefenseFunction::kDp) &&
               discs::has_function(f, discs::DefenseFunction::kCdpStamp);
      },
      p.prefix);
}

void LoopStepper::probe(std::size_t i) {
  dirty_[i] = false;
  auto& open = open_[i];
  const discs::SimTime now = loop_.now();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < open.size(); ++k) {
    if (enforced(*controllers_[i], open[k])) {
      ttp_ms_.push_back(static_cast<double>(now - open[k].invoked_at) / 1000.0);
    } else {
      open[kept++] = open[k];
    }
  }
  open.resize(kept);
}

void LoopStepper::run_until(discs::SimTime deadline) {
  while (true) {
    const std::optional<discs::SimTime> next = loop_.next_event_time();
    // Probe peers whose deliveries at the current timestamp are complete.
    if (!next || *next > loop_.now()) {
      for (std::size_t i = 0; i < controllers_.size(); ++i) {
        if (dirty_[i]) probe(i);
      }
    }
    if (!next || *next > deadline) break;
    const auto t0 = Clock::now();
    loop_.step();
    const double dt = seconds_between(t0, Clock::now());
    busy_s_ += dt;
    step_s_ += dt;
    ++events_;
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
      const std::uint64_t d = controllers_[i]->con_rou().stats().delivered;
      if (d != delivered_[i]) {
        delivered_[i] = d;
        if (!open_[i].empty()) dirty_[i] = true;
      }
    }
  }
  loop_.run_until(deadline);  // nothing left to run; moves now() forward
}

std::size_t LoopStepper::open_probes() const {
  std::size_t n = 0;
  for (const auto& o : open_) n += o.size();
  return n;
}

bool full_mesh(const std::vector<discs::Controller*>& controllers) {
  for (const discs::Controller* a : controllers) {
    for (const discs::Controller* b : controllers) {
      if (a != b && !a->is_peer(b->as_number())) return false;
    }
  }
  return true;
}

std::size_t key_mismatches(const std::vector<discs::Controller*>& controllers,
                           const Oracle& oracle, Rng& rng) {
  AddressPicker pick(oracle);
  std::size_t bad = 0;
  for (const discs::Controller* a : controllers) {
    for (const discs::Controller* b : controllers) {
      if (a == b) continue;
      const auto* ks = a->tables().key_s.find(b->as_number());
      const auto* kv = b->tables().key_v.find(a->as_number());
      const auto src = pick.v4_of(a->as_number(), rng);
      const auto dst = pick.v4_of(b->as_number(), rng);
      if (ks == nullptr || kv == nullptr || !src || !dst) {
        ++bad;
        continue;
      }
      const discs::Ipv4Packet packet = make_v4(*src, *dst, rng);
      const std::uint32_t mark = own_mark4(discs::AesCmac(ks->active), packet);
      bool ok = own_mark4(discs::AesCmac(kv->active), packet) == mark;
      if (!ok && kv->previous) ok = own_mark4(discs::AesCmac(*kv->previous), packet) == mark;
      bad += ok ? 0 : 1;
    }
  }
  return bad;
}

discs::Ipv4Packet make_v4(Ipv4Address src, Ipv4Address dst, Rng& rng) {
  std::vector<std::uint8_t> payload(8);
  const std::uint64_t bits = rng.next();
  for (std::size_t i = 0; i < 8; ++i) payload[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  discs::Ipv4Packet p = discs::Ipv4Packet::make(src, dst, discs::IpProto::kUdp, std::move(payload));
  p.header.flags = 0x2;  // DF: never a fragment
  p.header.identification = static_cast<std::uint16_t>(rng.next());
  p.header.fragment_offset = 0;
  p.header.refresh_checksum();
  return p;
}

discs::Ipv6Packet make_v6(const Ipv6Address& src, const Ipv6Address& dst, Rng& rng) {
  std::vector<std::uint8_t> payload(8);
  const std::uint64_t bits = rng.next();
  for (std::size_t i = 0; i < 8; ++i) payload[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  return discs::Ipv6Packet::make(src, dst, 17, std::move(payload));
}

std::optional<Ipv4Address> AddressPicker::v4_of(AsNumber as, Rng& rng) const {
  const auto& prefixes = oracle_.primary_prefixes_of(as);
  if (prefixes.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Ipv4Address a = address_in(prefixes[rng.below(prefixes.size())], rng.next());
    if (oracle_.origin(a) == as) return a;
  }
  return std::nullopt;
}

std::optional<Ipv6Address> AddressPicker::v6_of(AsNumber as, Rng& rng) const {
  const auto& prefixes = oracle_.prefixes6_of(as);
  if (prefixes.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Ipv6Address a = address_in(prefixes[rng.below(prefixes.size())], rng.next());
    if (oracle_.origin(a) == as) return a;
  }
  return std::nullopt;
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
