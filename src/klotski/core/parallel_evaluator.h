// Batched feasibility evaluation across a worker thread pool.
//
// The satisfiability check — materialize a compact state, run the constraint
// stack — is a pure function of the count vector, so independent candidate
// states can be checked concurrently. Each worker owns a full private
// evaluation context (a topology clone, a task copy pointing at that clone,
// a constraint stack built by the planner's CheckerFactory, and a private
// StateEvaluator), so workers never synchronize during a batch: each takes
// one contiguous chunk of the batch, so a batch in ascending flat order
// hands every worker neighbouring states. The shared evaluator's
// satisfiability cache is consulted before dispatch and updated after the
// batch on the calling thread, so the cache itself needs no locking.
//
// Verdicts are returned to the caller (and merged into the shared cache when
// enabled), which lets the planners consume batch results exactly where the
// serial code would have called StateEvaluator::feasible — with identical
// verdicts, since every worker context materializes the same states and the
// checkers are pure (see checker.h).
//
// This pool parallelizes *across* candidate states; the ECMP router can
// additionally parallelize *within* one check (EcmpRouter::set_num_workers
// recomputes dirty demand groups concurrently). The two compose through the
// CheckerFactory: run_pipeline and klotski_plan divide the intra-check
// budget by num_threads when building the worker configs, so a machine runs
// ~num_threads * max(1, router_threads / num_threads) threads, not the
// product.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "klotski/core/planner.h"
#include "klotski/core/state_evaluator.h"

namespace klotski::core {

class ParallelEvaluator {
 public:
  /// Spawns `num_threads` workers, each with a private clone of the shared
  /// evaluator's task (topology copy included) and a constraint stack built
  /// by `factory`. num_threads <= 1 or a null factory spawns no workers;
  /// evaluate_batch then calls the shared evaluator's feasible() on every
  /// entry in order — the serial code path, cache hits counted as such.
  ParallelEvaluator(StateEvaluator& shared, const CheckerFactory& factory,
                    int num_threads);
  ~ParallelEvaluator();

  ParallelEvaluator(const ParallelEvaluator&) = delete;
  ParallelEvaluator& operator=(const ParallelEvaluator&) = delete;

  bool parallel() const { return !threads_.empty(); }

  /// Evaluates feasibility of every count vector in `batch` (entries must
  /// be distinct) and returns verdicts aligned with it, valid until the
  /// next call. With workers, entries already in the shared cache are
  /// answered from it without touching the shared stats — the planners only
  /// batch states the serial code would evaluate, keeping sat_checks
  /// identical. Freshly evaluated entries are stored into the shared cache
  /// (when enabled) and counted via StateEvaluator::absorb_external.
  const std::vector<std::uint8_t>& evaluate_batch(
      const std::vector<CountVector>& batch);

  /// Flat-batch form: count spans plus their precomputed StateHasher
  /// hashes, so the shared-cache probe and store never rehash V. The
  /// planners' hot paths fill one reused StateBatch per expansion.
  const std::vector<std::uint8_t>& evaluate_batch(const StateBatch& batch);

 private:
  struct WorkerContext {
    std::unique_ptr<topo::Topology> topo;
    std::unique_ptr<migration::MigrationTask> task;
    std::shared_ptr<constraints::CompositeChecker> checker;
    std::unique_ptr<StateEvaluator> evaluator;
  };

  void worker_loop(std::size_t widx);

  StateEvaluator& shared_;
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  std::vector<std::thread> threads_;

  // Batch state, valid for one generation. Worker w evaluates jobs
  // [njobs_ * w / W, njobs_ * (w + 1) / W); the caller waits until every
  // worker finished its chunk (unfinished_ == 0) before reusing the buffers.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::size_t unfinished_ = 0;
  std::size_t njobs_ = 0;
  struct Job {
    const std::int32_t* counts;
    std::uint64_t hash;
  };
  std::vector<Job> pending_;                  // jobs (not in shared cache)
  std::vector<std::uint8_t> job_results_;     // aligned with pending_
  std::vector<std::size_t> pending_index_;    // job -> batch position
  std::vector<std::uint8_t> results_;         // aligned with batch
  std::unique_ptr<StateBatch> scratch_batch_;  // legacy-overload staging
};

}  // namespace klotski::core
