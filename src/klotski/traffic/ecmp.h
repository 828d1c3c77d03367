// ECMP traffic assignment over the active topology (§5: "we focus on
// macro-scale network behavior ... we use the equal-cost multi-path routing
// policy").
//
// For one demand, the router runs a multi-source BFS from the demand's
// active targets over traffic-carrying circuits, which yields the
// shortest-path DAG (circuits from a switch at distance k to a neighbor at
// distance k-1). The demand volume is injected equally across active source
// switches and propagated down the DAG, split equally across a switch's
// outgoing DAG circuits — ECMP is deliberately capacity-blind, exactly the
// property behind the HGRID V1/V2 outage described in §7.1.
//
// One assignment is Theta(|S| + |C|), matching the satisfiability-check
// cost in Theorems 1 and 2. The planner hot path amortizes that cost across
// nearby topology states, and the engine is laid out so an assignment only
// pays for what it actually touches:
//
//  * Epoch-stamped scratch — dist/volume validity is a per-switch stamp
//    compared against a per-BFS epoch, so starting a BFS never clears the
//    O(|S|) arrays; only visited switches are written.
//  * Word-packed liveness — "circuit carries traffic" lives in uint64 words
//    (bit per circuit), refreshed by journal replay; per-group relevant
//    and carried switch sets are packed the same way so the dirty screening
//    in mark_dirty_groups is word-AND + popcount work, not byte scans.
//  * Flat arc records — the 8-byte CSR arc holds the neighbor and the
//    directional load slot; the circuit id is slot >> 1, which indexes the
//    liveness bit and the capacity, so BFS and propagation read one
//    contiguous stream instead of chasing Circuit records through the
//    topology. BFS records each switch's next hops as it scans, so
//    propagation walks the DAG rather than every arc again.
//  * Exact load-aware screening — a group's cached result depends only on
//    its *carried* switches (those on some shortest-path DAG path from an
//    active source), so a liveness flip whose farther endpoint is not
//    carried, or a switch that comes up beside the carried DAG, leaves the
//    group's loads bit-identical and is not a reason to recompute it
//    (mark_dirty_groups states the rule and why it is exact).
//  * Exact fixed-point totals — the per-slot totals are unsigned 128-bit
//    integers in units of 2^-100 Tbps (FixedLoad below). Integer addition is
//    associative, so a total does not depend on the order its contributions
//    arrive in, and a recomputed group's contribution can be swapped in by
//    subtracting its old entries and adding its new ones.
//  * Per-group diff — a bound group keeps each switch's run of entries at a
//    known place in its entry store. A recompute compares every switch's
//    new next-hop shares against that run and reports only the slots whose
//    value changed, so updating the totals, and the verdict built on them,
//    costs the changed entries rather than all of them.
//  * Intra-check parallelism — with set_num_workers(n > 1), the dirty
//    groups of one bound assignment recompute concurrently on a private
//    worker pool (per-worker scratch, per-job diff buffers); the calling
//    thread applies the diffs, and exact totals make the result
//    bit-identical to the serial engine, logical counters included.
//  * Volume-only rebinds — rebind_volumes keeps every group's routing when
//    only demand volumes changed. A group the topology left alone is then
//    re-propagated over its stored runs without a BFS, with the same float
//    operations in the same order as a fresh propagation (repropagate_group
//    states the rule and why it is exact).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "klotski/obs/metrics.h"
#include "klotski/topo/topology.h"
#include "klotski/traffic/demand.h"

namespace klotski::traffic {

/// Per-circuit directional loads: index 2*c   = load from circuit(c).a to .b,
///                                index 2*c+1 = load from .b to .a (Tbps).
using LoadVector = std::vector<double>;

/// Exact load in fixed point: one unit is 2^-100 Tbps, so an unsigned
/// 128-bit total covers [0, 2^28) Tbps.
///
///  * Resolution: a load of 2^-48 Tbps or more has a double ulp of at least
///    2^-100 and converts exactly. A smaller load rounds to the nearest unit
///    on its own (ties to even), before any addition, so the rounding does
///    not depend on summation order either.
///  * Range: ECMP conserves volume, so no slot carries more than the demand
///    set's total positive volume (plus a few ulps of split rounding).
///    EcmpRouter refuses demand sets whose total exceeds
///    kMaxTotalVolumeTbps = 2^27 Tbps, which leaves a factor of two of
///    headroom below the 2^28 Tbps ceiling.
///  * The double every caller sees is the correctly rounded value of the
///    total (fixed_to_tbps).
__extension__ typedef unsigned __int128 FixedLoad;

inline constexpr int kFixedFractionBits = 100;
inline constexpr double kMaxTotalVolumeTbps = 0x1p27;

/// Rounds a load in [0, 2^28) Tbps to the nearest unit (ties to even).
/// Nothing outside that range reaches it from a demand set the router
/// accepts, except shares split by nonsensical (negative or non-finite)
/// WCMP capacities; those map to 0 (negative, NaN) or the largest value
/// (too large), so the arithmetic stays defined and deterministic.
inline FixedLoad tbps_to_fixed(double tbps) {
  // A non-negative double is m * 2^(e - 1075) for its 53-bit significand m
  // and biased exponent e (e = 0: subnormal, scaled as e = 1 without the
  // hidden bit), so in units of 2^-100 it is m * 2^(e - 975).
  const auto bits = std::bit_cast<std::uint64_t>(tbps);
  const auto biased = static_cast<int>(bits >> 52);  // sign bit included
  if (biased >= 0x7ff) {
    // Negative (sign bit set), or +inf / NaN (all exponent bits set).
    return biased == 0x7ff && (bits & ((std::uint64_t{1} << 52) - 1)) == 0
               ? ~FixedLoad{0}
               : 0;
  }
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  int shift = 1 - 975;
  if (biased != 0) {
    m |= std::uint64_t{1} << 52;
    shift = biased - 975;
  }
  if (shift >= 0) {
    // m < 2^53, so m << 75 < 2^128: exactly the documented 2^28 Tbps range.
    return shift <= 75 ? static_cast<FixedLoad>(m) << shift : ~FixedLoad{0};
  }
  const int right = -shift;
  if (right > 53) return 0;  // below half a unit
  // Round to nearest, ties to even.
  const std::uint64_t q = m >> right;
  const std::uint64_t rem = m & ((std::uint64_t{1} << right) - 1);
  const std::uint64_t half = std::uint64_t{1} << (right - 1);
  return q + ((rem > half || (rem == half && (q & 1) != 0)) ? 1 : 0);
}

/// The double nearest to a fixed-point load (ties to even).
inline double fixed_to_tbps(FixedLoad load) {
  // 2^e as a double, for -1022 <= e <= 1023.
  const auto exp2 = [](int e) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + e) << 52);
  };
  const auto hi = static_cast<std::uint64_t>(load >> 64);
  const auto lo = static_cast<std::uint64_t>(load);
  if (hi == 0) return static_cast<double>(lo) * exp2(-kFixedFractionBits);
  // Keep the top 64 bits and fold everything below into a sticky low bit:
  // rounding 64 bits to a 53-bit significand reads only bit 10 and whether
  // any lower bit is set, so the uint64 conversion rounds exactly as a
  // 128-bit one would.
  const int shift = 64 - std::countl_zero(hi);  // 1..64
  const auto top = static_cast<std::uint64_t>(load >> shift);
  const std::uint64_t sticky = (lo << (64 - shift)) != 0 ? 1 : 0;
  return static_cast<double>(top | sticky) * exp2(shift - kFixedFractionBits);
}

/// How a switch splits traffic over its equal-cost next hops.
///
///  * kEqualSplit       — plain ECMP: equal share per circuit, regardless of
///                        capacity. The production default, and the cause of
///                        the §7.1 outage: a low-capacity next hop receives
///                        the same share as a high-capacity one.
///  * kCapacityWeighted — weighted ECMP (WCMP): share proportional to
///                        circuit capacity. Models the "temporary routing
///                        configurations to balance the traffic between
///                        HGRID V1 and V2" that operators create (§7.1);
///                        Klotski is being extended toward such flexible
///                        routing configurations.
enum class SplitMode : std::uint8_t { kEqualSplit, kCapacityWeighted };

class EcmpRouter {
 public:
  /// Captures the immutable structure (CSR adjacency, inlined capacities).
  /// Element states are read from `topo` at assignment time, so the same
  /// router serves every intermediate topology of a migration. Capacity
  /// edits after construction follow the topology's out-of-band contract:
  /// call Topology::bump_state_version() and the next refresh re-reads them.
  explicit EcmpRouter(const topo::Topology& topo,
                      SplitMode mode = SplitMode::kEqualSplit);
  ~EcmpRouter();

  EcmpRouter(const EcmpRouter&) = delete;
  EcmpRouter& operator=(const EcmpRouter&) = delete;

  SplitMode split_mode() const { return mode_; }
  void set_split_mode(SplitMode mode);

  /// Intra-check worker pool size for bound assign_all: n > 1 spawns n
  /// worker threads that recompute independent dirty demand groups
  /// concurrently. Results are bit-identical to the serial engine (same
  /// loads, same failure, same logical counters); only wall-clock and the
  /// physical obs counters change. n <= 1 joins the pool and restores the
  /// fully serial path. Not thread-safe against concurrent assign calls.
  void set_num_workers(int n);
  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Adds this demand's circuit loads into `loads` (resized if needed), each
  /// rounded through FixedLoad. Returns false — without touching `loads`
  /// beyond possible resizing — when the demand is unroutable: no active
  /// target, or some active source cannot reach any target.
  bool assign(const Demand& demand, LoadVector& loads);

  /// Assigns a whole demand set, sharing work across demands: the liveness
  /// words are refreshed only when the topology changed, and demands with
  /// identical target sets share one BFS and one load propagation (ECMP is
  /// linear in the injected volume for a fixed DAG, so merged propagation
  /// is exact). Adds the exact totals, rounded once per slot, into `loads`.
  /// When `demands` is the currently bound set (bind_demands), this runs
  /// assign_bound and copies its totals out. Returns false on the first
  /// unroutable demand, reporting its name via `failed_demand` when
  /// non-null.
  bool assign_all(const DemandSet& demands, LoadVector& loads,
                  std::string* failed_demand = nullptr);

  /// Declares `demands` the router's resident demand set: target-set groups
  /// are built once here (not O(n^2) per check) and assign_bound keeps
  /// per-group results across calls. The caller owns the set and must
  /// rebind after mutating it (DemandChecker does this on set_demands, and
  /// calls rebind_volumes when only volumes changed).
  /// Binding another set drops the previous binding. Throws
  /// std::invalid_argument, leaving the router unbound, when the set's
  /// volume is out of FixedLoad range.
  void bind_demands(const DemandSet& demands);
  bool bound_to(const DemandSet& demands) const {
    return bound_ == &demands && demands.size() == bound_size_;
  }

  /// The caller changed only the volume_tbps of `demands` in place (names,
  /// kinds, sources and targets as bound). When `demands` is the bound set,
  /// the groups keep their routing and the next assign_bound re-propagates
  /// the new volumes without a BFS wherever the topology allows; otherwise
  /// this is bind_demands. Throws std::invalid_argument, leaving the router
  /// unbound, when the new volumes are out of FixedLoad range.
  void rebind_volumes(const DemandSet& demands);

  /// The satisfiability-check hot path at O(10,000)-switch scale: assigns
  /// the bound set into the router's own exact totals, recomputing only the
  /// groups the topology changes since the last call can affect, and
  /// applying only the slots whose value changed. Returns false on the
  /// first unroutable demand (group order), reporting its name via
  /// `failed_demand` when non-null. Requires a bound set.
  bool assign_bound(std::string* failed_demand = nullptr);

  /// After a successful assign_bound: the larger of a circuit's two
  /// directional totals, correctly rounded.
  double circuit_load(topo::CircuitId c) const {
    const auto slot = static_cast<std::size_t>(c) * 2;
    return fixed_to_tbps(std::max(totals_[slot], totals_[slot + 1]));
  }

  /// Bumped by every successful assign_bound. When it advanced by exactly
  /// one since a consumer last read the totals and totals_rebuilt() is
  /// false, for_each_changed_circuit visits every circuit whose total
  /// changed in between, ascending. A failed assignment, a rebind (volume
  /// only or not), set_split_mode, the first call, or a journal gap
  /// rebuilds the totals from scratch instead; consumers must then rescan.
  std::uint64_t totals_generation() const { return totals_generation_; }
  bool totals_rebuilt() const { return totals_rebuilt_; }
  template <typename Fn>
  void for_each_changed_circuit(Fn&& fn) const {
    for_each_bit(changed_words_,
                 [&](std::size_t c) { fn(static_cast<topo::CircuitId>(c)); });
  }

  /// True iff every active source can reach an active target (connectivity
  /// part of Eq. 4, without computing loads).
  bool reachable(const Demand& demand);

  std::size_t num_switches() const { return num_switches_; }

  /// After a successful bound assignment: the ascending list of circuits
  /// with a non-zero total, built on demand. Lets utilization scans
  /// (max_utilization / worst_circuit / DemandChecker) visit only loaded
  /// circuits instead of all of them. touched_valid() goes false on
  /// unbound or failed assignments, rebinding, and single-demand assign();
  /// callers must then fall back to the full-circuit scan.
  bool touched_valid() const { return touched_valid_; }
  const std::vector<topo::CircuitId>& touched_circuits() const;
  /// The same circuits, visited in ascending order without building the
  /// list.
  template <typename Fn>
  void for_each_loaded_circuit(Fn&& fn) const {
    for (std::size_t w = 0; w < nonzero_words_.size(); ++w) {
      // Fold each circuit's two slot bits onto its even bit.
      std::uint64_t bits =
          (nonzero_words_[w] | (nonzero_words_[w] >> 1)) & kEvenBits;
      for (; bits != 0; bits &= bits - 1) {
        fn(static_cast<topo::CircuitId>(
            (w << 5) + static_cast<std::size_t>(std::countr_zero(bits)) / 2));
      }
    }
  }

  /// Group recomputations saved by the incremental cache (diagnostics).
  /// Logical counters: invariant under num_workers. They count the
  /// screen's decisions, so a volume-only re-propagation is neither.
  long long group_recomputes() const { return group_recomputes_; }
  long long group_reuses() const { return group_reuses_; }

 private:
  /// One (slot, value) pair of a group's load contribution, with the CSR arc
  /// that produced it. Propagation writes each directional slot at most once
  /// per group (a circuit is a DAG edge in at most one direction), so a
  /// group's load vector is exactly its list of live entries.
  struct LoadEntry {
    std::uint32_t slot;
    std::uint32_t arc;  // index into arcs_; ascending within a switch's run
    double value;
  };

  /// Where one switch's entries sit in its group's entry store: `len`
  /// entries from `begin`, in CSR arc order (one switch's next hops).
  /// `fresh` marks a run written by the recompute in progress.
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t len : 31 = 0;
    std::uint32_t fresh : 1 = 0;
  };
  static_assert(sizeof(Run) == 8, "Run is two 32-bit words");

  /// One slot whose group contribution changed in a recompute (0 where the
  /// slot was absent before or after).
  struct LoadChange {
    std::uint32_t slot;
    double before;
    double after;
  };

  /// Where a recompute sends its changed slots: straight into the totals
  /// (`router`, serial path) or into a job's buffer (`buffer`, worker).
  struct ChangeSink {
    EcmpRouter* router;
    std::vector<LoadChange>* buffer;
    long long changed = 0;
    void add(std::uint32_t slot, double before, double after);
  };

  /// One target-set group of the bound demand set, with its cached BFS
  /// distances and sparse load contribution. Its live entries are always
  /// exactly what totals_ holds for this group, except after a failed
  /// assignment, which forces a rebuild.
  struct DemandGroup {
    std::vector<std::uint32_t> demand_indices;  // into the bound set
    std::vector<std::uint64_t> relevant_words;  // switch-id bitset
    bool valid = false;
    /// Dense BFS distances at the last recompute, plus switches attached
    /// since; kUnreached where not visited. Exact on carried switches;
    /// elsewhere a lower bound once the group has been reused across
    /// changes it does not carry.
    std::vector<std::int32_t> dist;
    std::vector<std::uint64_t> carried_words;  // switch-id bitset
    /// Entry store: every emitting switch's run, updated in place when the
    /// new run fits and appended otherwise, plus the dead space that
    /// leaves; packed in place whenever an append would outgrow it.
    std::vector<LoadEntry> entries;
    std::vector<Run> run_of;               // per switch; len 0: no run
    std::vector<topo::SwitchId> emitters;  // switches with a run
    std::uint32_t live = 0;                // entries in runs
  };

  /// Flat CSR arc record: everything BFS + propagation need, contiguous.
  /// For switch s, its arcs are arcs_[offsets_[s]..offsets_[s+1]).
  struct Arc {
    topo::SwitchId neighbor;
    std::uint32_t fwd_slot;  // load slot for s -> neighbor; circuit = slot >> 1
  };
  static_assert(sizeof(Arc) == 8, "Arc is two 32-bit fields");

  /// Per-thread BFS/propagation scratch. The epoch stamp makes dist/volume
  /// reads self-invalidating: an entry is live iff stamp[s] == epoch, so a
  /// new BFS only bumps the epoch instead of clearing O(|S|) arrays.
  struct Scratch {
    std::vector<std::int32_t> dist;
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
    std::vector<topo::SwitchId> visit_order;  // ascending distance
    std::vector<double> volume;               // per-switch pending volume
    std::vector<std::uint8_t> carried;        // per-switch, valid if reached
    /// Shortest-path next hops from the last BFS: the switch at
    /// visit_order[k] has arcs dag_arcs[dag_begin[k] .. dag_begin[k + 1]).
    std::vector<std::uint32_t> dag_arcs;
    std::vector<std::uint32_t> dag_begin;
    std::vector<const Demand*> group_ptrs;
    std::vector<LoadEntry> run;                // one switch's new entries
    std::vector<topo::SwitchId> emitters;      // a recompute's emitters
    std::vector<std::pair<std::uint32_t, topo::SwitchId>> pack;  // runs

    void init(std::size_t num_switches);
    /// Starts a BFS generation; handles the (rare) epoch wrap.
    void begin_bfs();
    bool reached(topo::SwitchId s) const {
      return stamp[static_cast<std::size_t>(s)] == epoch;
    }
  };

  /// Runs the BFS from the demand's targets into `s`; visited switches get
  /// dist stamped and volume zeroed, and their next hops recorded. Returns
  /// the number of visited switches (0 if no active target).
  std::size_t bfs_from_targets(Scratch& s, const Demand& demand) const;

  /// Injects every demand's volume at its active sources and marks them
  /// carried (zero-volume demands included); returns false when a demand
  /// has an active source the current BFS did not reach, reporting the
  /// demand via `failed`.
  bool inject_sources(Scratch& s, const std::vector<const Demand*>& demands,
                      const Demand** failed) const;

  /// Propagates scratch volume down the current shortest-path DAG and
  /// marks every switch downstream of a carried switch carried. Each switch
  /// that sends volume on emits its run of entries, in CSR arc order, as
  /// emit(switch, run).
  template <typename EmitRun>
  void propagate(Scratch& s, EmitRun&& emit) const;

  /// Sends the differences between one switch's old and new runs to
  /// `sink`; returns the number of unchanged entries.
  static long long diff_run(const LoadEntry* old_run, std::uint32_t old_len,
                            const LoadEntry* new_run, std::uint32_t new_len,
                            ChangeSink& sink);

  /// Calls `fn(i)` for every set bit i of `words`, ascending.
  template <typename Fn>
  static void for_each_bit(const std::vector<std::uint64_t>& words, Fn&& fn) {
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        fn((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Groups demand indices by identical target sets, first-occurrence order.
  static std::vector<std::vector<std::uint32_t>> group_by_targets(
      const DemandSet& demands);

  /// BFS + inject for one group of the given demand set, ready for
  /// propagate.
  bool route_group(Scratch& s, const DemandSet& demands,
                   const std::vector<std::uint32_t>& indices,
                   std::string* failed_demand) const;

  /// Recomputes one bound group into its cache (entry store and dist
  /// snapshot). With `sink` non-null, sends it every slot whose value
  /// differs from the group's previous entries (changed, added or
  /// removed); with null, rebuilds the store without diffing. On failure
  /// the group keeps its previous entries. Thread-safe for distinct groups
  /// with distinct scratch and sinks.
  bool recompute_group(Scratch& s, DemandGroup& g, ChangeSink* sink,
                       std::string* failed_demand) const;

  /// Rewrites the values of a topology-clean group's runs for the bound
  /// set's new volumes, walking its stored emitters instead of a BFS.
  /// Returns false, with the runs partly rewritten, when the new volumes
  /// would change which switches emit; the caller then recomputes.
  bool repropagate_group(Scratch& s, DemandGroup& g) const;

  /// What assign_bound does with one group (dirty_scratch_ values;
  /// mark_dirty_groups' dirty flag 1 is kRecompute).
  enum GroupWork : std::uint8_t { kReuse = 0, kRecompute = 1, kRepropagate = 2 };
  /// Brings group `gi` up to date as dirty_scratch_[gi] says:
  /// re-propagation (falling back to a recompute) or recompute_group.
  bool update_group(Scratch& s, std::size_t gi, ChangeSink* sink,
                    std::string* failed_demand);
  /// Whether any of the group's demands has a volume other than the one
  /// its entries were propagated with.
  bool volumes_moved(const DemandGroup& g) const;

  /// Slides the group's live runs to the front of its entry store, in
  /// place; safe in the middle of a recompute's propagation.
  void pack_entries(Scratch& s, DemandGroup& g) const;

  /// Marks groups whose cached loads a journaled change could affect.
  /// `changes` are topology journal entries since groups_version_.
  void mark_dirty_groups(const std::vector<topo::Topology::StateChange>& changes,
                         std::vector<std::uint8_t>& dirty);

  /// Gives switch `x`, unreached in the group's snapshot and now joined to
  /// it by an alive circuit, the snapshot distance one above its nearest
  /// alive neighbor (see the rule in mark_dirty_groups). Returns false,
  /// leaving the snapshot alone, when an alive neighbor is unreached too.
  bool attach_switch(DemandGroup& g, topo::SwitchId x) const;
  static bool carried(const DemandGroup& g, topo::SwitchId s) {
    const auto si = static_cast<std::size_t>(s);
    return (g.carried_words[si >> 6] >> (si & 63)) & 1;
  }

  /// Applies one changed slot to totals_ and records its circuit.
  void apply_change(std::uint32_t slot, double before, double after);
  /// Rebuilds totals_ and the non-zero set from every group's live runs.
  void rebuild_totals(std::size_t load_size);

  /// Brings the liveness words (and, on full rebuilds, the inlined arc
  /// capacities) up to the topology's current state version: a no-op when
  /// unchanged, a journal replay when the gap is covered, one sequential
  /// pass otherwise.
  void refresh_alive();

  bool arc_alive(const Arc& arc) const {
    return circuit_alive(static_cast<topo::CircuitId>(arc.fwd_slot >> 1));
  }
  /// Split weight of an arc: one per hop for plain ECMP, capacity for WCMP.
  double arc_weight(const Arc& arc) const {
    return mode_ == SplitMode::kEqualSplit ? 1.0
                                           : capacities_[arc.fwd_slot >> 1];
  }
  bool circuit_alive(topo::CircuitId c) const {
    return (alive_words_[static_cast<std::size_t>(c) >> 6] >>
            (static_cast<std::size_t>(c) & 63)) &
           1;
  }
  void set_circuit_alive(topo::CircuitId c, bool alive) {
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<std::size_t>(c) & 63);
    if (alive) {
      alive_words_[static_cast<std::size_t>(c) >> 6] |= mask;
    } else {
      alive_words_[static_cast<std::size_t>(c) >> 6] &= ~mask;
    }
  }

  // Worker pool (intra-check parallel dirty-group recompute).
  void worker_loop(std::size_t widx);
  void stop_workers();
  /// Runs job_groups_ on the pool and waits for completion.
  void run_jobs_parallel();

  const topo::Topology& topo_;
  SplitMode mode_ = SplitMode::kEqualSplit;
  std::size_t num_switches_ = 0;

  std::vector<std::uint32_t> offsets_;
  std::vector<Arc> arcs_;
  std::vector<double> capacities_;  // per circuit, re-read on full refresh

  static constexpr std::int32_t kUnreached = -1;
  static constexpr std::uint64_t kEvenBits = 0x5555555555555555ull;
  Scratch scratch_;  // the calling thread's scratch
  std::vector<FixedLoad> unbound_totals_;       // assign_all scratch, zero
  std::vector<std::uint32_t> unbound_slots_;    // its non-zero slots
  std::vector<std::uint64_t> alive_words_;  // bit c = circuit c carries traffic
  bool alive_valid_ = false;
  std::uint64_t alive_version_ = 0;
  std::vector<topo::Topology::StateChange> changes_scratch_;

  // mark_dirty_groups scratch: word-packed changed-element sets, cleared
  // word-by-word after use (only touched words are written).
  std::vector<std::uint64_t> changed_switch_words_;
  std::vector<std::uint64_t> changed_circuit_words_;
  std::vector<std::uint32_t> changed_switch_word_idx_;
  std::vector<std::uint32_t> changed_circuit_word_idx_;
  std::vector<std::uint8_t> dirty_scratch_;  // per-group dirty flags

  // Bound demand set and its incremental per-group caches.
  const DemandSet* bound_ = nullptr;
  std::size_t bound_size_ = 0;
  std::vector<DemandGroup> groups_;
  bool groups_ready_ = false;
  std::uint64_t groups_version_ = 0;
  // Per bound demand, the volume the groups' entries were propagated with;
  // valid while !volumes_stale_ (set by binding and by rebind_volumes).
  std::vector<double> routed_volumes_;
  bool volumes_stale_ = true;
  // Exact totals of the bound set: totals_[slot] is the sum of every
  // group's entries for that slot.
  std::vector<FixedLoad> totals_;
  std::vector<std::uint64_t> nonzero_words_;  // slot bits: totals_ != 0
  std::uint64_t totals_generation_ = 0;
  bool totals_rebuilt_ = true;
  std::vector<std::uint64_t> changed_words_;  // circuit bits, this call
  mutable std::vector<topo::CircuitId> touched_circuits_;  // ascending ids
  mutable std::uint64_t touched_generation_ = 0;  // totals it was built from
  bool touched_valid_ = false;
  long long group_recomputes_ = 0;
  long long group_reuses_ = 0;

  // Worker pool state. Workers claim job indices via next_; the caller
  // waits until every claimed job finished and every worker left the drain
  // loop (active_ == 0) before touching the buffers.
  std::vector<std::unique_ptr<Scratch>> worker_scratch_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  int active_ = 0;
  std::size_t njobs_ = 0;
  std::atomic<std::size_t> next_{0};
  std::vector<std::uint32_t> job_groups_;  // dirty group indices, ascending
  std::vector<std::uint8_t> job_ok_;       // aligned with job_groups_
  std::vector<std::string> job_fail_;      // failed demand name per job
  std::vector<std::vector<LoadChange>> job_diff_;  // group diff per job
  bool jobs_diff_ = false;  // whether this batch's jobs record diffs

  // Global observability counters (metrics.h; no-ops while disabled). These
  // aggregate *physical* work over every router instance, worker clones
  // included — unlike the planner's logical counters they are not invariant
  // under num_threads / num_workers.
  obs::Counter& m_alive_journal_replays_;
  obs::Counter& m_alive_full_rebuilds_;
  obs::Counter& m_group_recomputes_;
  obs::Counter& m_group_reuses_;
  obs::Counter& m_group_invalidations_;
  obs::Counter& m_parallel_batches_;
  obs::Counter& m_parallel_jobs_;
  obs::Counter& m_dirty_screen_circuits_;
  obs::Counter& m_diff_changed_slots_;
  obs::Counter& m_diff_unchanged_entries_;
  obs::Counter& m_volume_repropagations_;
  obs::Counter& m_volume_fallbacks_;
};

/// Maximum utilization over circuits given directional loads; utilization of
/// a circuit is max(direction loads) / capacity. Returns 0 for an empty
/// topology. Circuits not carrying traffic but with non-zero load would be a
/// router bug; they are ignored here.
double max_utilization(const topo::Topology& topo, const LoadVector& loads);

/// Worst circuit (id, utilization); id = kInvalidCircuit when no circuit is
/// loaded.
struct WorstCircuit {
  topo::CircuitId circuit = topo::kInvalidCircuit;
  double utilization = 0.0;
};
WorstCircuit worst_circuit(const topo::Topology& topo, const LoadVector& loads);

/// Touched-circuit fast path: identical result to the full-scan overloads
/// when `touched` (ascending circuit ids, e.g. EcmpRouter::touched_circuits)
/// covers every circuit with non-zero load in `loads`. Circuits outside
/// `touched` are not inspected.
double max_utilization(const topo::Topology& topo, const LoadVector& loads,
                       const std::vector<topo::CircuitId>& touched);
WorstCircuit worst_circuit(const topo::Topology& topo, const LoadVector& loads,
                           const std::vector<topo::CircuitId>& touched);

}  // namespace klotski::traffic
