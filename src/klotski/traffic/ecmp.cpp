#include "klotski/traffic/ecmp.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace klotski::traffic {

using topo::CircuitId;
using topo::SwitchId;
using topo::Topology;

namespace {

constexpr std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

void set_bit(std::vector<std::uint64_t>& words, std::size_t i, bool on) {
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if (on) {
    words[i >> 6] |= mask;
  } else {
    words[i >> 6] &= ~mask;
  }
}

/// Throws std::invalid_argument when the demands' total positive volume is
/// not finite or exceeds kMaxTotalVolumeTbps, the bound that keeps every
/// slot's FixedLoad total in range.
void check_volume_range(const DemandSet& demands) {
  double total = 0.0;
  for (const Demand& d : demands) total += std::max(d.volume_tbps, 0.0);
  if (!(total <= kMaxTotalVolumeTbps)) {
    throw std::invalid_argument(
        "demand set volume " + std::to_string(total) +
        " Tbps is outside the exact load range (at most 2^27 Tbps)");
  }
}

}  // namespace

EcmpRouter::EcmpRouter(const topo::Topology& topo, SplitMode mode)
    : topo_(topo),
      mode_(mode),
      num_switches_(topo.num_switches()),
      m_alive_journal_replays_(
          obs::Registry::global().counter("router.alive_journal_replays")),
      m_alive_full_rebuilds_(
          obs::Registry::global().counter("router.alive_full_rebuilds")),
      m_group_recomputes_(
          obs::Registry::global().counter("router.group_recomputes")),
      m_group_reuses_(obs::Registry::global().counter("router.group_reuses")),
      m_group_invalidations_(
          obs::Registry::global().counter("router.group_invalidations")),
      m_parallel_batches_(
          obs::Registry::global().counter("router.parallel_batches")),
      m_parallel_jobs_(obs::Registry::global().counter("router.parallel_jobs")),
      m_dirty_screen_circuits_(
          obs::Registry::global().counter("router.dirty_screen_circuits")),
      m_diff_changed_slots_(
          obs::Registry::global().counter("router.diff_changed_slots")),
      m_diff_unchanged_entries_(
          obs::Registry::global().counter("router.diff_unchanged_entries")),
      m_volume_repropagations_(
          obs::Registry::global().counter("router.volume_repropagations")),
      m_volume_fallbacks_(
          obs::Registry::global().counter("router.volume_fallbacks")) {
  offsets_.assign(num_switches_ + 1, 0);
  for (const topo::Circuit& c : topo.circuits()) {
    ++offsets_[static_cast<std::size_t>(c.a) + 1];
    ++offsets_[static_cast<std::size_t>(c.b) + 1];
  }
  for (std::size_t i = 1; i <= num_switches_; ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  arcs_.resize(offsets_[num_switches_]);
  capacities_.resize(topo.num_circuits());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const topo::Circuit& c : topo.circuits()) {
    const auto cid = static_cast<std::size_t>(c.id);
    // Direction slot convention: 2c is a -> b, 2c + 1 is b -> a.
    arcs_[cursor[static_cast<std::size_t>(c.a)]++] =
        Arc{c.b, static_cast<std::uint32_t>(cid * 2)};
    arcs_[cursor[static_cast<std::size_t>(c.b)]++] =
        Arc{c.a, static_cast<std::uint32_t>(cid * 2 + 1)};
    capacities_[cid] = c.capacity_tbps;
  }

  scratch_.init(num_switches_);
  alive_words_.assign(word_count(topo.num_circuits()), 0);
}

EcmpRouter::~EcmpRouter() { stop_workers(); }

void EcmpRouter::Scratch::init(std::size_t num_switches) {
  dist.assign(num_switches, -1);
  stamp.assign(num_switches, 0);
  epoch = 0;
  visit_order.clear();
  visit_order.reserve(num_switches);
  volume.assign(num_switches, 0.0);
  carried.assign(num_switches, 0);
  emitters.reserve(num_switches);
  dag_begin.reserve(num_switches + 1);
}

void EcmpRouter::Scratch::begin_bfs() {
  visit_order.clear();
  if (++epoch == 0) {
    // uint32 wrap (once per ~4e9 BFS runs): stale stamps could collide with
    // the recycled epoch, so clear them and restart at 1.
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }
}

void EcmpRouter::set_split_mode(SplitMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // Cached group loads were computed under the old split weights.
  groups_ready_ = false;
  touched_valid_ = false;
  for (DemandGroup& g : groups_) g.valid = false;
}

void EcmpRouter::refresh_alive() {
  const std::uint64_t v = topo_.state_version();
  const std::size_t words = word_count(topo_.num_circuits());
  if (alive_valid_ && v == alive_version_ && alive_words_.size() == words) {
    return;
  }
  changes_scratch_.clear();
  if (alive_valid_ && alive_words_.size() == words &&
      topo_.changes_since(alive_version_, changes_scratch_)) {
    m_alive_journal_replays_.inc();
    // Replay only the journaled changes: a circuit flip touches that
    // circuit's bit, a switch flip touches its incident circuits' bits.
    for (const Topology::StateChange e : changes_scratch_) {
      if (Topology::change_is_switch(e)) {
        for (const CircuitId c : topo_.incident(Topology::change_switch(e))) {
          set_circuit_alive(c, topo_.circuit_carries_traffic(c));
        }
      } else {
        const CircuitId c = Topology::change_circuit(e);
        set_circuit_alive(c, topo_.circuit_carries_traffic(c));
      }
    }
  } else {
    m_alive_full_rebuilds_.inc();
    topo_.liveness_words(alive_words_);
    // The full-rebuild path is also where out-of-band capacity edits land
    // (bump_state_version resets journal coverage), so re-read the split
    // weights while we are touching every circuit anyway.
    for (const topo::Circuit& c : topo_.circuits()) {
      capacities_[static_cast<std::size_t>(c.id)] = c.capacity_tbps;
    }
  }
  alive_valid_ = true;
  alive_version_ = v;
}

std::size_t EcmpRouter::bfs_from_targets(Scratch& s,
                                         const Demand& demand) const {
  s.begin_bfs();

  for (const SwitchId t : demand.targets) {
    if (!topo_.sw(t).active()) continue;
    const auto ti = static_cast<std::size_t>(t);
    if (s.stamp[ti] != s.epoch) {
      s.stamp[ti] = s.epoch;
      s.dist[ti] = 0;
      s.volume[ti] = 0.0;  // lazy zero: only visited switches pay
      s.carried[ti] = 0;
      s.visit_order.push_back(t);
    }
  }
  if (s.visit_order.empty()) return 0;

  // Standard BFS; visit_order doubles as the queue (ascending distance).
  // Stamping replaces the O(|S|) dist/volume clears of a naive BFS.
  // When u (distance d) is dequeued, every switch at d - 1 is already
  // stamped, so u's alive arcs to stamped neighbors at d - 1 are exactly
  // its shortest-path next hops; they are recorded here, in CSR arc order,
  // so propagation walks the DAG instead of rescanning every arc.
  s.dag_arcs.clear();
  s.dag_begin.clear();
  for (std::size_t head = 0; head < s.visit_order.size(); ++head) {
    const SwitchId u = s.visit_order[head];
    const std::int32_t du = s.dist[static_cast<std::size_t>(u)];
    s.dag_begin.push_back(static_cast<std::uint32_t>(s.dag_arcs.size()));
    const std::uint32_t end = offsets_[static_cast<std::size_t>(u) + 1];
    for (std::uint32_t i = offsets_[static_cast<std::size_t>(u)]; i < end;
         ++i) {
      const Arc& arc = arcs_[i];
      if (!arc_alive(arc)) continue;
      const auto ni = static_cast<std::size_t>(arc.neighbor);
      if (s.stamp[ni] != s.epoch) {
        s.stamp[ni] = s.epoch;
        s.dist[ni] = du + 1;
        s.volume[ni] = 0.0;
        s.carried[ni] = 0;
        s.visit_order.push_back(arc.neighbor);
      } else if (s.dist[ni] == du - 1) {
        s.dag_arcs.push_back(i);
      }
    }
  }
  s.dag_begin.push_back(static_cast<std::uint32_t>(s.dag_arcs.size()));
  return s.visit_order.size();
}

bool EcmpRouter::reachable(const Demand& demand) {
  refresh_alive();
  if (bfs_from_targets(scratch_, demand) == 0) return false;
  for (const SwitchId s : demand.sources) {
    if (topo_.sw(s).active() && !scratch_.reached(s)) return false;
  }
  return true;
}

bool EcmpRouter::inject_sources(Scratch& s,
                                const std::vector<const Demand*>& demands,
                                const Demand** failed) const {
  for (const Demand* demand : demands) {
    // Count active sources and check reachability first (Eq. 4).
    std::size_t active_sources = 0;
    for (const SwitchId src : demand->sources) {
      if (!topo_.sw(src).active()) continue;
      if (!s.reached(src)) {
        if (failed != nullptr) *failed = demand;
        return false;
      }
      ++active_sources;
    }
    if (active_sources == 0) continue;  // vacuously satisfied, no load

    const double per_source =
        demand->volume_tbps / static_cast<double>(active_sources);
    for (const SwitchId src : demand->sources) {
      if (topo_.sw(src).active() && s.reached(src)) {
        s.volume[static_cast<std::size_t>(src)] += per_source;
        // Carried even at zero volume: cutting this source's paths must
        // still fail the group, so the screen has to watch them.
        s.carried[static_cast<std::size_t>(src)] = 1;
      }
    }
  }
  return true;
}

template <typename EmitRun>
void EcmpRouter::propagate(Scratch& s, EmitRun&& emit) const {
  // Propagate along the DAG in decreasing distance: visit_order is in
  // ascending distance, so walk it backwards. A switch's volume splits over
  // circuits toward neighbors one step closer to a target. A directional
  // slot is emitted at most once: the arc u -> n is a DAG edge only when
  // dist[n] == dist[u] - 1, which the reverse direction cannot satisfy, and
  // BFS records each directed arc at most once. Every switch holding volume
  // is carried (volume only enters at carried sources and flows to next
  // hops, which become carried), so the carried walk covers the volume walk.
  for (std::size_t idx = s.visit_order.size(); idx-- > 0;) {
    const SwitchId u = s.visit_order[idx];
    if (!s.carried[static_cast<std::size_t>(u)]) continue;
    const std::int32_t du = s.dist[static_cast<std::size_t>(u)];
    if (du == 0) continue;  // absorbed at a target

    // The equal-cost next hops BFS recorded, and their total split weight
    // (hop count for plain ECMP, summed capacity for weighted ECMP).
    const std::uint32_t* hops = s.dag_arcs.data() + s.dag_begin[idx];
    const std::uint32_t num_hops = s.dag_begin[idx + 1] - s.dag_begin[idx];
    double total_weight = 0.0;
    for (std::uint32_t h = 0; h < num_hops; ++h) {
      const Arc& arc = arcs_[hops[h]];
      s.carried[static_cast<std::size_t>(arc.neighbor)] = 1;
      total_weight += arc_weight(arc);
    }
    assert(total_weight > 0.0 && "reached switch must have a next hop");

    const double vol = s.volume[static_cast<std::size_t>(u)];
    if (vol <= 0.0) continue;  // carried by a zero-volume demand only
    s.run.clear();
    for (std::uint32_t h = 0; h < num_hops; ++h) {
      const std::uint32_t i = hops[h];
      const Arc& arc = arcs_[i];
      const double share = vol * arc_weight(arc) / total_weight;
      s.run.push_back(LoadEntry{arc.fwd_slot, i, share});
      s.volume[static_cast<std::size_t>(arc.neighbor)] += share;
    }
    emit(u, s.run);
  }
}

long long EcmpRouter::diff_run(const LoadEntry* old_run, std::uint32_t old_len,
                               const LoadEntry* new_run, std::uint32_t new_len,
                               ChangeSink& sink) {
  // Both runs are one switch's entries in CSR arc order, so they merge like
  // two sorted lists keyed by arc. Usually the next hops and shares are
  // unchanged, so the common prefix is skipped first.
  long long unchanged = 0;
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  while (i < old_len && j < new_len && old_run[i].arc == new_run[j].arc &&
         old_run[i].value == new_run[j].value) {
    ++i;
    ++j;
    ++unchanged;
  }
  while (i < old_len && j < new_len) {
    const LoadEntry& o = old_run[i];
    const LoadEntry& n = new_run[j];
    if (o.arc == n.arc) {
      if (o.value != n.value) {
        sink.add(n.slot, o.value, n.value);
      } else {
        ++unchanged;
      }
      ++i;
      ++j;
    } else if (o.arc < n.arc) {
      sink.add(o.slot, o.value, 0.0);
      ++i;
    } else {
      sink.add(n.slot, 0.0, n.value);
      ++j;
    }
  }
  for (; i < old_len; ++i) sink.add(old_run[i].slot, old_run[i].value, 0.0);
  for (; j < new_len; ++j) sink.add(new_run[j].slot, 0.0, new_run[j].value);
  return unchanged;
}

bool EcmpRouter::assign(const Demand& demand, LoadVector& loads) {
  if (!(std::max(demand.volume_tbps, 0.0) <= kMaxTotalVolumeTbps)) {
    throw std::invalid_argument("demand " + demand.name +
                                " volume is outside the exact load range");
  }
  loads.resize(topo_.num_circuits() * 2, 0.0);
  touched_valid_ = false;

  refresh_alive();
  if (bfs_from_targets(scratch_, demand) == 0) return false;

  const std::vector<const Demand*> group = {&demand};
  if (!inject_sources(scratch_, group, nullptr)) return false;
  // One demand writes each slot once, so each slot's total is one entry.
  propagate(scratch_, [&](SwitchId, const std::vector<LoadEntry>& run) {
    for (const LoadEntry& e : run) {
      loads[e.slot] += fixed_to_tbps(tbps_to_fixed(e.value));
    }
  });
  return true;
}

namespace {

// Hash grouping key: the demand's target-set vector, compared by value.
struct TargetsHash {
  std::size_t operator()(const std::vector<SwitchId>* key) const {
    std::size_t h = 1469598103934665603ull;  // FNV-1a
    for (const SwitchId s : *key) {
      h ^= static_cast<std::size_t>(s);
      h *= 1099511628211ull;
    }
    return h;
  }
};
struct TargetsEq {
  bool operator()(const std::vector<SwitchId>* a,
                  const std::vector<SwitchId>* b) const {
    return *a == *b;
  }
};

}  // namespace

std::vector<std::vector<std::uint32_t>> EcmpRouter::group_by_targets(
    const DemandSet& demands) {
  std::vector<std::vector<std::uint32_t>> groups;
  std::unordered_map<const std::vector<SwitchId>*, std::size_t, TargetsHash,
                     TargetsEq>
      index;
  index.reserve(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto [it, inserted] =
        index.try_emplace(&demands[i].targets, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<std::uint32_t>(i));
  }
  return groups;
}

bool EcmpRouter::route_group(Scratch& s, const DemandSet& demands,
                             const std::vector<std::uint32_t>& indices,
                             std::string* failed_demand) const {
  // All demands of a group share one target set, hence one BFS. ECMP load
  // is linear in injected volume over a fixed shortest-path DAG, so one
  // merged propagation equals the sum of per-demand assignments.
  const Demand& representative = demands[indices.front()];
  if (bfs_from_targets(s, representative) == 0) {
    if (failed_demand != nullptr) *failed_demand = representative.name;
    return false;
  }
  s.group_ptrs.clear();
  for (const std::uint32_t i : indices) s.group_ptrs.push_back(&demands[i]);
  const Demand* failed = nullptr;
  if (!inject_sources(s, s.group_ptrs, &failed)) {
    if (failed_demand != nullptr) *failed_demand = failed->name;
    return false;
  }
  return true;
}

bool EcmpRouter::recompute_group(Scratch& s, DemandGroup& g, ChangeSink* sink,
                                 std::string* failed_demand) const {
  m_group_recomputes_.inc();  // physical count (includes parallel overshoot)
  g.valid = false;
  if (!route_group(s, *bound_, g.demand_indices, failed_demand)) return false;
  if (g.run_of.size() != num_switches_ || sink == nullptr) {
    // No diff: start the entry store afresh.
    if (g.run_of.size() != num_switches_) {
      g.run_of.assign(num_switches_, Run{});
    } else {
      for (const SwitchId x : g.emitters) {
        g.run_of[static_cast<std::size_t>(x)] = Run{};
      }
    }
    g.entries.clear();
    g.emitters.clear();
    g.live = 0;
  }
  s.emitters.clear();
  long long unchanged = 0;
  propagate(s, [&](SwitchId u, const std::vector<LoadEntry>& run) {
    Run& r = g.run_of[static_cast<std::size_t>(u)];
    const auto len = static_cast<std::uint32_t>(run.size());
    if (sink != nullptr) {
      const LoadEntry* old_run =
          r.len != 0 ? g.entries.data() + r.begin : nullptr;
      unchanged += diff_run(old_run, r.len, run.data(), len, *sink);
    }
    // Overwrite the old run when the new one fits. Otherwise the old run
    // becomes dead space and the new one is appended, after packing the
    // store in place if it is full, so the store grows only when the live
    // entries outgrow it.
    if (len <= r.len) {
      std::copy(run.begin(), run.end(),
                g.entries.begin() + static_cast<std::ptrdiff_t>(r.begin));
      g.live -= r.len - len;
    } else {
      g.live -= r.len;
      r.len = 0;
      if (g.entries.size() + len > g.entries.capacity()) pack_entries(s, g);
      r.begin = static_cast<std::uint32_t>(g.entries.size());
      g.entries.insert(g.entries.end(), run.begin(), run.end());
      g.live += len;
    }
    r.len = len;
    r.fresh = 1;
    s.emitters.push_back(u);
  });
  // Switches that emitted before but not now lost all their entries.
  for (const SwitchId x : g.emitters) {
    Run& r = g.run_of[static_cast<std::size_t>(x)];
    if (r.fresh) continue;
    if (sink != nullptr) {
      diff_run(g.entries.data() + r.begin, r.len, nullptr, 0, *sink);
    }
    g.live -= r.len;
    r = Run{};
  }
  for (const SwitchId x : s.emitters) {
    g.run_of[static_cast<std::size_t>(x)].fresh = 0;
  }
  g.emitters.assign(s.emitters.begin(), s.emitters.end());
  if (sink != nullptr) {
    m_diff_changed_slots_.inc(sink->changed);
    m_diff_unchanged_entries_.inc(unchanged);
  }
  // Materialize dense distance and carried snapshots for the dirty
  // screening (it reads arbitrary endpoints, so sparse stamped storage would
  // not help there).
  if (g.dist.size() == num_switches_) {
    std::fill(g.dist.begin(), g.dist.end(), kUnreached);
  } else {
    g.dist.assign(num_switches_, kUnreached);
  }
  g.carried_words.assign(word_count(num_switches_), 0);
  for (const SwitchId u : s.visit_order) {
    const auto ui = static_cast<std::size_t>(u);
    g.dist[ui] = s.dist[ui];
    if (s.carried[ui]) {
      g.carried_words[ui >> 6] |= std::uint64_t{1} << (ui & 63);
    }
  }
  g.valid = true;
  return true;
}

void EcmpRouter::pack_entries(Scratch& s, DemandGroup& g) const {
  // Live runs mid-propagate: the fresh ones written by this recompute
  // (s.emitters) and the previous recompute's runs not yet replaced (their
  // switch has not been reached yet, or drops out and still needs its
  // removal diff).
  s.pack.clear();
  for (const SwitchId x : s.emitters) {
    s.pack.emplace_back(g.run_of[static_cast<std::size_t>(x)].begin, x);
  }
  for (const SwitchId x : g.emitters) {
    const Run& r = g.run_of[static_cast<std::size_t>(x)];
    if (!r.fresh && r.len != 0) s.pack.emplace_back(r.begin, x);
  }
  // Sliding runs down in ascending start order never overwrites a run that
  // is still to be moved.
  std::sort(s.pack.begin(), s.pack.end());
  std::uint32_t cursor = 0;
  for (const auto& [begin, x] : s.pack) {
    Run& r = g.run_of[static_cast<std::size_t>(x)];
    if (begin != cursor) {
      const auto first = g.entries.begin() + static_cast<std::ptrdiff_t>(begin);
      std::copy(first, first + r.len,
                g.entries.begin() + static_cast<std::ptrdiff_t>(cursor));
    }
    r.begin = cursor;
    cursor += r.len;
  }
  g.entries.resize(cursor);
}

bool EcmpRouter::repropagate_group(Scratch& s, DemandGroup& g) const {
  // Why this is exact. A fresh recompute runs BFS, injects every demand's
  // volume at its active sources (demand order, source order), then walks
  // the carried switches in reverse visit order; a switch at distance > 0
  // whose volume is positive splits it over its next hops and emits one
  // entry per hop. A switch that does not emit adds nothing to anyone's
  // volume. The group is topology-clean, so its carried switches keep
  // their distances, next hops and visit order (mark_dirty_groups), and
  // which switches are carried does not depend on volumes. Its stored
  // emitters are in the reverse visit order of the last recompute, and
  // each one's run holds all of its next hops in CSR order. So while the
  // switches that emit stay the same, injecting in the same order and
  // walking the stored emitters repeats every floating-point operation of
  // a fresh recompute, in the same order: each volume is 0.0 plus the same
  // contributions, each share is vol * weight / total_weight over the same
  // weights. Inductively over the walk, the emitting set stays the same
  // unless a stored emitter's volume is <= 0 or positive volume reaches a
  // carried switch at distance > 0 that has no run; both are checked, and
  // so is a demand turning zero or positive (which moves sources in or
  // out of the emitting set before the walk gets there).
  const DemandSet& demands = *bound_;
  for (const std::uint32_t i : g.demand_indices) {
    if ((routed_volumes_[i] > 0.0) != (demands[i].volume_tbps > 0.0)) {
      return false;
    }
  }
  // The BFS epoch doubles as the volume stamp: a switch's volume is live
  // iff it was touched in this walk.
  s.begin_bfs();
  const auto add = [&](SwitchId x, double amount) {
    const auto xi = static_cast<std::size_t>(x);
    if (s.stamp[xi] != s.epoch) {
      s.stamp[xi] = s.epoch;
      s.volume[xi] = 0.0;
    }
    s.volume[xi] += amount;
    // Positive volume at a non-target without a run would make it emit.
    return !(amount > 0.0 && g.run_of[xi].len == 0 && g.dist[xi] != 0);
  };
  for (const std::uint32_t i : g.demand_indices) {
    const Demand& demand = demands[i];
    std::size_t active_sources = 0;
    for (const SwitchId src : demand.sources) {
      if (topo_.sw(src).active()) ++active_sources;
    }
    if (active_sources == 0) continue;
    const double per_source =
        demand.volume_tbps / static_cast<double>(active_sources);
    for (const SwitchId src : demand.sources) {
      if (topo_.sw(src).active() && !add(src, per_source)) return false;
    }
  }
  for (const SwitchId u : g.emitters) {
    const auto ui = static_cast<std::size_t>(u);
    const double vol = s.stamp[ui] == s.epoch ? s.volume[ui] : 0.0;
    if (!(vol > 0.0)) return false;
    const Run& r = g.run_of[ui];
    LoadEntry* const run = g.entries.data() + r.begin;
    double total_weight = 0.0;
    for (std::uint32_t h = 0; h < r.len; ++h) {
      total_weight += arc_weight(arcs_[run[h].arc]);
    }
    for (std::uint32_t h = 0; h < r.len; ++h) {
      const Arc& arc = arcs_[run[h].arc];
      const double share = vol * arc_weight(arc) / total_weight;
      run[h].value = share;
      if (!add(arc.neighbor, share)) return false;
    }
  }
  return true;
}

bool EcmpRouter::volumes_moved(const DemandGroup& g) const {
  for (const std::uint32_t i : g.demand_indices) {
    if ((*bound_)[i].volume_tbps != routed_volumes_[i]) return true;
  }
  return false;
}

bool EcmpRouter::update_group(Scratch& s, std::size_t gi, ChangeSink* sink,
                              std::string* failed_demand) {
  DemandGroup& g = groups_[gi];
  if (dirty_scratch_[gi] == kRepropagate) {
    if (repropagate_group(s, g)) {
      m_volume_repropagations_.inc();
      return true;
    }
    m_volume_fallbacks_.inc();
  }
  return recompute_group(s, g, sink, failed_demand);
}

void EcmpRouter::rebind_volumes(const DemandSet& demands) {
  if (!bound_to(demands)) {
    bind_demands(demands);
    return;
  }
  try {
    check_volume_range(demands);
  } catch (...) {
    bound_ = nullptr;
    bound_size_ = 0;
    throw;
  }
  volumes_stale_ = true;
  touched_valid_ = false;
}

void EcmpRouter::bind_demands(const DemandSet& demands) {
  // A refused set leaves no binding behind: the caller may already have
  // replaced the previous set in place, at the same address.
  bound_ = nullptr;
  bound_size_ = 0;
  check_volume_range(demands);
  bound_ = &demands;
  bound_size_ = demands.size();
  groups_.clear();
  groups_ready_ = false;
  volumes_stale_ = true;
  touched_valid_ = false;
  const std::size_t words = word_count(num_switches_);
  auto grouping = group_by_targets(demands);
  groups_.resize(grouping.size());
  for (std::size_t gi = 0; gi < grouping.size(); ++gi) {
    DemandGroup& g = groups_[gi];
    g.demand_indices = std::move(grouping[gi]);
    g.relevant_words.assign(words, 0);
    const auto mark = [&](SwitchId s) {
      g.relevant_words[static_cast<std::size_t>(s) >> 6] |=
          std::uint64_t{1} << (static_cast<std::size_t>(s) & 63);
    };
    for (const std::uint32_t i : g.demand_indices) {
      for (const SwitchId s : demands[i].sources) mark(s);
      for (const SwitchId t : demands[i].targets) mark(t);
    }
  }
}

void EcmpRouter::mark_dirty_groups(
    const std::vector<topo::Topology::StateChange>& changes,
    std::vector<std::uint8_t>& dirty) {
  const std::size_t switch_words = word_count(num_switches_);
  const std::size_t circuit_words = word_count(topo_.num_circuits());
  if (changed_switch_words_.size() < switch_words) {
    changed_switch_words_.resize(switch_words, 0);
  }
  if (changed_circuit_words_.size() < circuit_words) {
    changed_circuit_words_.resize(circuit_words, 0);
  }
  changed_switch_word_idx_.clear();
  changed_circuit_word_idx_.clear();
  const auto touch_circuit = [&](CircuitId c) {
    const auto w = static_cast<std::size_t>(c) >> 6;
    if (changed_circuit_words_[w] == 0) {
      changed_circuit_word_idx_.push_back(static_cast<std::uint32_t>(w));
    }
    changed_circuit_words_[w] |= std::uint64_t{1}
                                 << (static_cast<std::size_t>(c) & 63);
  };
  for (const Topology::StateChange e : changes) {
    if (Topology::change_is_switch(e)) {
      const SwitchId s = Topology::change_switch(e);
      const auto w = static_cast<std::size_t>(s) >> 6;
      if (changed_switch_words_[w] == 0) {
        changed_switch_word_idx_.push_back(static_cast<std::uint32_t>(w));
      }
      changed_switch_words_[w] |= std::uint64_t{1}
                                  << (static_cast<std::size_t>(s) & 63);
      // The switch's incident circuits' liveness may have flipped.
      for (const CircuitId c : topo_.incident(s)) touch_circuit(c);
    } else {
      touch_circuit(Topology::change_circuit(e));
    }
  }

  // A flipped switch dirties every group it sources or sinks (injection and
  // target activation depend on its state): word-AND the changed-switch set
  // against each group's packed relevant set — 64 switches per compare.
  for (const std::uint32_t w : changed_switch_word_idx_) {
    const std::uint64_t mask = changed_switch_words_[w];
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      if (!dirty[gi] && (groups_[gi].relevant_words[w] & mask) != 0) {
        dirty[gi] = 1;
      }
    }
  }

  // A liveness flip of circuit (a, b) dirties a group, under the group's
  // cached distances cd and carried set K, when:
  //  * the circuit is now alive, exactly one endpoint x is unreached, and x
  //    has another unreached alive neighbor; otherwise x is attached at one
  //    step above its nearest neighbor (attach_switch) and the rules below
  //    apply;
  //  * the endpoints sit at adjacent cached distances (the circuit is, or
  //    was, a DAG edge candidate) and the farther endpoint is carried;
  //  * otherwise, the circuit is now alive and its endpoints are neither
  //    reached at equal distance (a same-level chord is never on a shortest
  //    path) nor both unreached (an edge between two unreached switches
  //    cannot connect either to a target).
  // Exactness. Between recomputes cd changes only by attaching switches,
  // and it satisfies, for every alive circuit, |cd(a) - cd(b)| <= 1 or both
  // unreached: true at the recompute, kept by every alive circuit that
  // passes the rules above, and unaffected by circuits dying. Walking any
  // alive path to a target then shows cd is a lower bound on the true
  // distance, and that cd-unreached switches are truly unreached. A
  // carried switch keeps its cached DAG path to a target (each hop is an
  // adjacent-distance circuit with a carried farther endpoint, so no flip
  // of it passed), hence its distance is exact; and the circuits to its
  // cd - 1 neighbors never flipped, so its next hops are unchanged (an
  // attached switch at cd - 1 is joined by such a circuit in the same
  // batch, which dirties the group). Next hops of carried switches are
  // carried, so a BFS discoverer of a carried switch is carried too: by
  // induction on distance, carried switches keep their distances, next hops
  // and visit order, and propagation repeats every floating-point sum
  // exactly.
  // Conservative: a circuit journaled without a net liveness change may
  // still mark a group dirty; never the other way around.
  long long screened = 0;
  for (const std::uint32_t w : changed_circuit_word_idx_) {
    std::uint64_t bits = changed_circuit_words_[w];
    screened += std::popcount(bits);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      const auto c = static_cast<CircuitId>((static_cast<std::size_t>(w) << 6) +
                                            static_cast<std::size_t>(bit));
      const topo::Circuit& cc = topo_.circuit(c);
      const bool alive_now = circuit_alive(c);
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        if (dirty[gi]) continue;
        DemandGroup& g = groups_[gi];
        if (g.dist.size() != num_switches_) {
          dirty[gi] = 1;  // no usable snapshot: recompute
          continue;
        }
        std::int32_t da = g.dist[static_cast<std::size_t>(cc.a)];
        std::int32_t db = g.dist[static_cast<std::size_t>(cc.b)];
        if (alive_now && (da == kUnreached) != (db == kUnreached)) {
          if (!attach_switch(g, da == kUnreached ? cc.a : cc.b)) {
            dirty[gi] = 1;
            continue;
          }
          da = g.dist[static_cast<std::size_t>(cc.a)];
          db = g.dist[static_cast<std::size_t>(cc.b)];
        }
        if (da != kUnreached && db != kUnreached &&
            (da - db == 1 || db - da == 1)) {
          if (carried(g, da > db ? cc.a : cc.b)) dirty[gi] = 1;
        } else if (alive_now) {
          const bool equal_reached = da != kUnreached && da == db;
          const bool both_unreached = da == kUnreached && db == kUnreached;
          if (!equal_reached && !both_unreached) dirty[gi] = 1;
        }
      }
    }
  }
  m_dirty_screen_circuits_.inc(screened);

  // Zero only the touched words so the bitmaps are clean for the next call.
  for (const std::uint32_t w : changed_switch_word_idx_) {
    changed_switch_words_[w] = 0;
  }
  for (const std::uint32_t w : changed_circuit_word_idx_) {
    changed_circuit_words_[w] = 0;
  }
}

bool EcmpRouter::attach_switch(DemandGroup& g, SwitchId x) const {
  // x is active (it has an alive circuit) and unreached in the snapshot, so
  // it is neither a target nor a source of this group (one that changed
  // state already dirtied the group), and its true distance is one more
  // than its nearest alive neighbor's. When every
  // alive neighbor is reached, cd(x) = lo + 1 is a lower bound on it. Each
  // alive circuit of x is in this journal batch (before it, x was unreached
  // and the snapshot kept reached and unreached switches apart), so the
  // per-circuit rules then screen all of them against this cd: a neighbor
  // more than one step away, or a carried neighbor at lo + 2 that would gain
  // x as a next hop, still dirties the group.
  std::int32_t lo = kUnreached;
  const std::uint32_t end = offsets_[static_cast<std::size_t>(x) + 1];
  for (std::uint32_t i = offsets_[static_cast<std::size_t>(x)]; i < end; ++i) {
    if (!arc_alive(arcs_[i])) continue;
    const std::int32_t d = g.dist[static_cast<std::size_t>(arcs_[i].neighbor)];
    if (d == kUnreached) return false;  // x joins with others: recompute
    if (lo == kUnreached || d < lo) lo = d;
  }
  g.dist[static_cast<std::size_t>(x)] = lo + 1;
  return true;
}

void EcmpRouter::apply_change(std::uint32_t slot, double before, double after) {
  // Modular arithmetic: `before` is part of the exact total, so the result
  // is the exact new total whatever order the changes arrive in.
  FixedLoad& total = totals_[slot];
  total = total - tbps_to_fixed(before) + tbps_to_fixed(after);
  set_bit(nonzero_words_, slot, total != 0);
  const std::uint32_t c = slot >> 1;
  changed_words_[c >> 6] |= std::uint64_t{1} << (c & 63);
}

void EcmpRouter::ChangeSink::add(std::uint32_t slot, double before,
                                 double after) {
  ++changed;
  if (router != nullptr) {
    router->apply_change(slot, before, after);
  } else {
    buffer->push_back(LoadChange{slot, before, after});
  }
}

void EcmpRouter::rebuild_totals(std::size_t load_size) {
  if (totals_.size() != load_size) {
    totals_.assign(load_size, 0);
    nonzero_words_.assign(word_count(load_size), 0);
  } else {
    for_each_bit(nonzero_words_, [&](std::size_t slot) { totals_[slot] = 0; });
    std::fill(nonzero_words_.begin(), nonzero_words_.end(), 0);
  }
  // Entries are non-negative, so a total is non-zero iff one of its
  // entries is. A group's live entries are its emitters' runs; its store
  // may also hold dead space (a group kept across a volume-only rebind).
  for (const DemandGroup& g : groups_) {
    for (const SwitchId x : g.emitters) {
      const Run& r = g.run_of[static_cast<std::size_t>(x)];
      for (std::uint32_t i = r.begin; i < r.begin + r.len; ++i) {
        const LoadEntry& e = g.entries[i];
        const FixedLoad f = tbps_to_fixed(e.value);
        if (f == 0) continue;
        totals_[e.slot] += f;
        set_bit(nonzero_words_, e.slot, true);
      }
    }
  }
}

bool EcmpRouter::assign_bound(std::string* failed_demand) {
  assert(bound_ != nullptr && "assign_bound needs a bound demand set");
  refresh_alive();
  const std::uint64_t v = topo_.state_version();
  touched_valid_ = false;

  // Rebuild the totals from scratch on the first call, after a failure,
  // rebind or split-mode change (all leave groups_ready_ false), and when
  // the journal no longer covers the gap (which also covers out-of-band
  // capacity edits). Every group recomputes in each of those cases.
  bool rebuild = !groups_ready_;
  dirty_scratch_.assign(groups_.size(), rebuild ? kRecompute : kReuse);
  if (!rebuild && v != groups_version_) {
    changes_scratch_.clear();
    if (topo_.changes_since(groups_version_, changes_scratch_)) {
      mark_dirty_groups(changes_scratch_, dirty_scratch_);
    } else {
      rebuild = true;
      std::fill(dirty_scratch_.begin(), dirty_scratch_.end(), kRecompute);
    }
    long long invalidated = 0;
    for (const std::uint8_t d : dirty_scratch_) invalidated += d != 0 ? 1 : 0;
    m_group_invalidations_.inc(invalidated);
  }
  // groups_ready_ && v == groups_version_: every cache is current.

  // New volumes over kept groups (rebind_volumes): the groups the topology
  // left alone re-propagate without a BFS, and the totals are rebuilt as on
  // a rebind. New volumes move nearly every entry, and re-summing them is
  // cheaper than diffing each old and new value into the totals. The
  // planner never rebinds, so its checks skip this branch.
  if (groups_ready_ && volumes_stale_) {
    rebuild = true;
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      if (dirty_scratch_[gi] == kReuse && volumes_moved(groups_[gi])) {
        dirty_scratch_[gi] = kRepropagate;
      }
    }
  }

  const std::size_t circuit_words = word_count(topo_.num_circuits());
  changed_words_.assign(circuit_words, 0);

  const auto fail = [&]() {
    groups_ready_ = false;  // the next call rebuilds
    return false;
  };
  job_groups_.clear();
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    if (dirty_scratch_[gi]) job_groups_.push_back(static_cast<std::uint32_t>(gi));
  }
  // The logical counters count the screen's verdicts: kReuse is a reuse,
  // kRecompute a recompute, and a re-propagation neither.
  const auto count = [&](std::uint8_t work) {
    if (work == kReuse) {
      ++group_reuses_;
      m_group_reuses_.inc();
    } else if (work == kRecompute) {
      ++group_recomputes_;
    }
  };
  if (threads_.empty() || job_groups_.size() < 2) {
    // Serial path: update in group order, stopping at the first failure.
    // These loops define the logical counter semantics the parallel path
    // reproduces.
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      count(dirty_scratch_[gi]);
      if (dirty_scratch_[gi] == kReuse) continue;
      ChangeSink sink{this, nullptr};  // straight into the totals
      if (!update_group(scratch_, gi, rebuild ? nullptr : &sink,
                        failed_demand)) {
        return fail();
      }
    }
  } else {
    // Parallel path: physically update every dirty group on the pool,
    // each job diffing into its own buffer, then replay the serial loop's
    // accounting in group order on this thread — totals, failure identity,
    // and the logical counters come out bit-identical to the serial path.
    njobs_ = job_groups_.size();
    job_ok_.assign(njobs_, 0);
    job_fail_.assign(njobs_, std::string());
    if (job_diff_.size() < njobs_) job_diff_.resize(njobs_);
    jobs_diff_ = !rebuild;
    m_parallel_batches_.inc();
    m_parallel_jobs_.inc(static_cast<long long>(njobs_));
    run_jobs_parallel();
    std::size_t job = 0;
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      count(dirty_scratch_[gi]);
      if (dirty_scratch_[gi] == kReuse) continue;
      const std::size_t j = job++;
      if (!job_ok_[j]) {
        if (failed_demand != nullptr) *failed_demand = job_fail_[j];
        return fail();
      }
      if (!rebuild) {
        for (const LoadChange& ch : job_diff_[j]) {
          apply_change(ch.slot, ch.before, ch.after);
        }
      }
    }
  }
  if (rebuild) rebuild_totals(topo_.num_circuits() * 2);
  if (volumes_stale_) {
    routed_volumes_.resize(bound_size_);
    for (std::size_t i = 0; i < bound_size_; ++i) {
      routed_volumes_[i] = (*bound_)[i].volume_tbps;
    }
    volumes_stale_ = false;
  }
  groups_ready_ = true;
  // The screening proved the reused caches valid at v; advance so the next
  // call does not replay the same journal suffix again.
  groups_version_ = v;
  totals_rebuilt_ = rebuild;
  ++totals_generation_;
  touched_valid_ = true;
  return true;
}

const std::vector<CircuitId>& EcmpRouter::touched_circuits() const {
  if (touched_generation_ != totals_generation_) {
    touched_circuits_.clear();
    for_each_loaded_circuit(
        [&](CircuitId c) { touched_circuits_.push_back(c); });
    touched_generation_ = totals_generation_;
  }
  return touched_circuits_;
}

bool EcmpRouter::assign_all(const DemandSet& demands, LoadVector& loads,
                            std::string* failed_demand) {
  const std::size_t load_size = topo_.num_circuits() * 2;
  loads.resize(load_size, 0.0);
  if (bound_to(demands)) {
    if (!assign_bound(failed_demand)) return false;
    for_each_bit(nonzero_words_, [&](std::size_t slot) {
      loads[slot] += fixed_to_tbps(totals_[slot]);
    });
    return true;
  }

  // Unbound one-shot path: group by target set (hash map, first-occurrence
  // order) and evaluate each group once, without caching, summing into the
  // same exact totals the bound path keeps.
  check_volume_range(demands);
  touched_valid_ = false;
  refresh_alive();
  if (unbound_totals_.size() != load_size) unbound_totals_.assign(load_size, 0);
  bool ok = true;
  for (const auto& indices : group_by_targets(demands)) {
    if (!route_group(scratch_, demands, indices, failed_demand)) {
      ok = false;
      break;
    }
    propagate(scratch_, [&](SwitchId, const std::vector<LoadEntry>& run) {
      for (const LoadEntry& e : run) {
        const FixedLoad f = tbps_to_fixed(e.value);
        if (f == 0) continue;
        FixedLoad& total = unbound_totals_[e.slot];
        if (total == 0) unbound_slots_.push_back(e.slot);
        total += f;
      }
    });
  }
  for (const std::uint32_t slot : unbound_slots_) {
    if (ok) loads[slot] += fixed_to_tbps(unbound_totals_[slot]);
    unbound_totals_[slot] = 0;
  }
  unbound_slots_.clear();
  return ok;
}

void EcmpRouter::set_num_workers(int n) {
  const std::size_t want = n > 1 ? static_cast<std::size_t>(n) : 0;
  if (want == threads_.size()) return;
  stop_workers();
  if (want == 0) return;
  worker_scratch_.clear();
  worker_scratch_.reserve(want);
  threads_.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    worker_scratch_.push_back(std::make_unique<Scratch>());
    worker_scratch_.back()->init(num_switches_);
  }
  for (std::size_t i = 0; i < want; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void EcmpRouter::stop_workers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  worker_scratch_.clear();
  stop_ = false;
  // Restart the generation clock: freshly spawned workers begin at seen = 0,
  // so a stale non-zero generation would wake them into the previous pool's
  // job state before any batch is published.
  generation_ = 0;
  active_ = 0;
}

void EcmpRouter::worker_loop(std::size_t widx) {
  std::uint64_t seen = 0;
  Scratch& scratch = *worker_scratch_[widx];
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    for (;;) {
      const std::size_t j = next_.fetch_add(1, std::memory_order_relaxed);
      if (j >= njobs_) break;
      std::string fail;
      job_diff_[j].clear();
      ChangeSink sink{nullptr, &job_diff_[j]};
      const bool ok = update_group(scratch, job_groups_[j],
                                   jobs_diff_ ? &sink : nullptr, &fail);
      job_ok_[j] = ok ? 1 : 0;
      if (!ok) job_fail_[j] = std::move(fail);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void EcmpRouter::run_jobs_parallel() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread drains jobs too — with a small pool most of the
  // work would otherwise sit behind one wakeup latency.
  for (;;) {
    const std::size_t j = next_.fetch_add(1, std::memory_order_relaxed);
    if (j >= njobs_) break;
    std::string fail;
    job_diff_[j].clear();
    ChangeSink sink{nullptr, &job_diff_[j]};
    const bool ok = update_group(scratch_, job_groups_[j],
                                 jobs_diff_ ? &sink : nullptr, &fail);
    job_ok_[j] = ok ? 1 : 0;
    if (!ok) job_fail_[j] = std::move(fail);
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_ == 0; });
}

double max_utilization(const topo::Topology& topo, const LoadVector& loads) {
  return worst_circuit(topo, loads).utilization;
}

WorstCircuit worst_circuit(const topo::Topology& topo,
                           const LoadVector& loads) {
  WorstCircuit worst;
  const std::size_t n = std::min(loads.size() / 2, topo.num_circuits());
  for (std::size_t c = 0; c < n; ++c) {
    const double load = std::max(loads[c * 2], loads[c * 2 + 1]);
    if (load <= 0.0) continue;
    const double util = load / topo.circuit(static_cast<CircuitId>(c))
                                   .capacity_tbps;
    if (util > worst.utilization) {
      worst.utilization = util;
      worst.circuit = static_cast<CircuitId>(c);
    }
  }
  return worst;
}

double max_utilization(const topo::Topology& topo, const LoadVector& loads,
                       const std::vector<topo::CircuitId>& touched) {
  return worst_circuit(topo, loads, touched).utilization;
}

WorstCircuit worst_circuit(const topo::Topology& topo, const LoadVector& loads,
                           const std::vector<topo::CircuitId>& touched) {
  WorstCircuit worst;
  const std::size_t n = std::min(loads.size() / 2, topo.num_circuits());
  for (const CircuitId c : touched) {
    const auto ci = static_cast<std::size_t>(c);
    if (ci >= n) continue;
    const double load = std::max(loads[ci * 2], loads[ci * 2 + 1]);
    if (load <= 0.0) continue;
    const double util = load / topo.circuit(c).capacity_tbps;
    if (util > worst.utilization) {
      worst.utilization = util;
      worst.circuit = c;
    }
  }
  return worst;
}

}  // namespace klotski::traffic
