// Port constraints (Eq. 6): the number of present circuits terminating on a
// present switch must not exceed the switch's physical port count. Tight
// port budgets are what force "decommission first to free up the ports"
// orderings (§2.3).
//
// The checker keeps per-switch occupied-port counts and a violator set and
// brings them up to date from Topology::changes_since, so a check costs
// O(changed elements x degree) rather than a scan of every switch. A journal
// gap — another topology, a version older than the journal's floor, or a
// bump_state_version after an out-of-band edit such as a max_ports change
// (see the purity contract in checker.h) — falls back to a full rescan. The
// verdict names the lowest-id violating switch either way, and it is
// memoized per (topology identity, state version).
#pragma once

#include <cstdint>
#include <vector>

#include "klotski/constraints/checker.h"

namespace klotski::constraints {

class PortChecker : public Checker {
 public:
  PortChecker() = default;

  Verdict check(const topo::Topology& topo) override;
  std::string name() const override { return "ports"; }

 private:
  /// Recounts every switch from the topology's current states.
  void rescan(const topo::Topology& topo);
  /// Applies one journaled element change to the counts.
  void replay(const topo::Topology& topo, topo::Topology::StateChange change);
  /// Moves `s`'s occupied count by `delta` and refreshes its violator bit.
  void adjust(const topo::Topology& topo, topo::SwitchId s, int delta);
  void refresh_violator(const topo::Topology& topo, topo::SwitchId s);
  Verdict verdict(const topo::Topology& topo) const;

  // Counts as of (counted_topo_, counted_version_). Invariant: occupied_[s]
  // is the number of incident circuits c with circuit_present_[c] and
  // switch_present_[other end of c] — Topology::occupied_ports over the
  // recorded presence bits.
  bool counted_ = false;
  const topo::Topology* counted_topo_ = nullptr;
  std::uint64_t counted_version_ = 0;
  std::vector<std::uint8_t> switch_present_;
  std::vector<std::uint8_t> circuit_present_;
  std::vector<std::int32_t> occupied_;
  std::vector<std::uint64_t> violator_words_;  // bit s: present, over budget
  std::size_t violators_ = 0;
  std::vector<topo::Topology::StateChange> changes_;  // scratch

  Verdict memo_verdict_;
};

}  // namespace klotski::constraints
