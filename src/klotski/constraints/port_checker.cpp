#include "klotski/constraints/port_checker.h"

#include <bit>

#include "klotski/obs/metrics.h"

namespace klotski::constraints {

using topo::CircuitId;
using topo::SwitchId;
using topo::Topology;

Verdict PortChecker::check(const Topology& topo) {
  const bool same_topo = counted_ && counted_topo_ == &topo &&
                         occupied_.size() == topo.num_switches() &&
                         circuit_present_.size() == topo.num_circuits();
  if (same_topo && counted_version_ == topo.state_version()) {
    static obs::Counter& memo_hits =
        obs::Registry::global().counter("checker.port.memo_hits");
    memo_hits.inc();
    return memo_verdict_;
  }
  changes_.clear();
  if (same_topo && topo.changes_since(counted_version_, changes_)) {
    for (const Topology::StateChange change : changes_) replay(topo, change);
  } else {
    rescan(topo);
  }
  counted_ = true;
  counted_topo_ = &topo;
  counted_version_ = topo.state_version();
  memo_verdict_ = verdict(topo);
  return memo_verdict_;
}

void PortChecker::rescan(const Topology& topo) {
  switch_present_.resize(topo.num_switches());
  for (const topo::Switch& s : topo.switches()) {
    switch_present_[static_cast<std::size_t>(s.id)] = s.present() ? 1 : 0;
  }
  circuit_present_.resize(topo.num_circuits());
  occupied_.assign(topo.num_switches(), 0);
  for (const topo::Circuit& c : topo.circuits()) {
    const bool present = c.present();
    circuit_present_[static_cast<std::size_t>(c.id)] = present ? 1 : 0;
    if (!present) continue;
    if (switch_present_[static_cast<std::size_t>(c.b)]) {
      ++occupied_[static_cast<std::size_t>(c.a)];
    }
    if (switch_present_[static_cast<std::size_t>(c.a)]) {
      ++occupied_[static_cast<std::size_t>(c.b)];
    }
  }
  violator_words_.assign((topo.num_switches() + 63) / 64, 0);
  violators_ = 0;
  for (std::size_t s = 0; s < topo.num_switches(); ++s) {
    refresh_violator(topo, static_cast<SwitchId>(s));
  }
}

void PortChecker::replay(const Topology& topo, Topology::StateChange change) {
  if (Topology::change_is_switch(change)) {
    const SwitchId s = Topology::change_switch(change);
    const auto si = static_cast<std::size_t>(s);
    const std::uint8_t present = topo.sw(s).present() ? 1 : 0;
    if (present == switch_present_[si]) return;
    switch_present_[si] = present;
    // The switch's own count does not depend on its presence, but each
    // neighbor across a present circuit gains or loses that port.
    for (const CircuitId c : topo.incident(s)) {
      if (circuit_present_[static_cast<std::size_t>(c)]) {
        adjust(topo, topo.circuit(c).other(s), present ? 1 : -1);
      }
    }
    refresh_violator(topo, s);
  } else {
    const CircuitId c = Topology::change_circuit(change);
    const auto ci = static_cast<std::size_t>(c);
    const std::uint8_t present = topo.circuit(c).present() ? 1 : 0;
    if (present == circuit_present_[ci]) return;
    circuit_present_[ci] = present;
    const topo::Circuit& circuit = topo.circuit(c);
    const int delta = present ? 1 : -1;
    if (switch_present_[static_cast<std::size_t>(circuit.b)]) {
      adjust(topo, circuit.a, delta);
    }
    if (switch_present_[static_cast<std::size_t>(circuit.a)]) {
      adjust(topo, circuit.b, delta);
    }
  }
}

void PortChecker::adjust(const Topology& topo, SwitchId s, int delta) {
  occupied_[static_cast<std::size_t>(s)] += delta;
  refresh_violator(topo, s);
}

void PortChecker::refresh_violator(const Topology& topo, SwitchId s) {
  const auto si = static_cast<std::size_t>(s);
  const bool violates =
      switch_present_[si] && occupied_[si] > topo.sw(s).max_ports;
  const std::uint64_t mask = std::uint64_t{1} << (si & 63);
  std::uint64_t& word = violator_words_[si >> 6];
  if (violates == ((word & mask) != 0)) return;
  if (violates) {
    word |= mask;
    ++violators_;
  } else {
    word &= ~mask;
    --violators_;
  }
}

Verdict PortChecker::verdict(const Topology& topo) const {
  if (violators_ == 0) return Verdict::ok();
  for (std::size_t w = 0; w < violator_words_.size(); ++w) {
    if (violator_words_[w] == 0) continue;
    const auto s = static_cast<SwitchId>(
        (w << 6) + static_cast<std::size_t>(std::countr_zero(violator_words_[w])));
    const topo::Switch& sw = topo.sw(s);
    return Verdict::fail("switch " + sw.name + " needs " +
                         std::to_string(occupied_[static_cast<std::size_t>(s)]) +
                         " ports but has " + std::to_string(sw.max_ports));
  }
  return Verdict::ok();  // unreachable: violators_ counts set bits
}

}  // namespace klotski::constraints
