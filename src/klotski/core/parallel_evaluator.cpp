#include "klotski/core/parallel_evaluator.h"

namespace klotski::core {

ParallelEvaluator::ParallelEvaluator(StateEvaluator& shared,
                                     const CheckerFactory& factory,
                                     int num_threads)
    : shared_(shared) {
  if (num_threads <= 1 || !factory) return;
  const migration::MigrationTask& source = shared_.task();
  contexts_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    auto ctx = std::make_unique<WorkerContext>();
    ctx->topo = std::make_unique<topo::Topology>(*source.topo);
    ctx->task = std::make_unique<migration::MigrationTask>(source);
    ctx->task->topo = ctx->topo.get();
    ctx->checker = factory(*ctx->task);
    // No private cache: verdicts flow back through the shared cache, and a
    // per-worker cache would double-count hits relative to the serial run.
    ctx->evaluator =
        std::make_unique<StateEvaluator>(*ctx->task, *ctx->checker, false);
    // One check of the origin here, on the calling thread, sizes the
    // worker's per-topology buffers (router group caches, load vectors,
    // port counts). Buffers first allocated on a worker thread would live in
    // that thread's malloc arena, whose freed pages stay resident after the
    // pool is gone: on the full-scale plans that added ~15 MB of peak RSS.
    ctx->evaluator->feasible(CountVector(source.blocks.size(), 0));
    contexts_.push_back(std::move(ctx));
  }
  threads_.reserve(contexts_.size());
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ParallelEvaluator::~ParallelEvaluator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ParallelEvaluator::worker_loop(std::size_t widx) {
  WorkerContext& ctx = *contexts_[widx];
  const std::size_t workers = contexts_.size();
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::size_t njobs = njobs_;
    lock.unlock();

    // One contiguous chunk per worker: the planners batch states in
    // ascending flat order, so neighbouring jobs differ by a few blocks and
    // this worker's delta materialization and router caches stay warm.
    const std::size_t begin = njobs * widx / workers;
    const std::size_t end = njobs * (widx + 1) / workers;
    for (std::size_t k = begin; k < end; ++k) {
      job_results_[k] =
          ctx.evaluator->feasible(pending_[k].counts, pending_[k].hash) ? 1
                                                                        : 0;
    }

    lock.lock();
    if (--unfinished_ == 0) done_cv_.notify_all();
  }
}

const std::vector<std::uint8_t>& ParallelEvaluator::evaluate_batch(
    const std::vector<CountVector>& batch) {
  scratch_batch_ = std::make_unique<StateBatch>(
      shared_.target().size());
  for (const CountVector& counts : batch) {
    scratch_batch_->push(counts.data(), StateHasher::hash(counts));
  }
  return evaluate_batch(*scratch_batch_);
}

const std::vector<std::uint8_t>& ParallelEvaluator::evaluate_batch(
    const StateBatch& batch) {
  results_.assign(batch.size(), 0);
  if (!parallel()) {
    // No workers: exactly the serial code path on the shared evaluator,
    // cache probes and stat accounting included.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      results_[i] = shared_.feasible(batch.counts(i), batch.hash(i)) ? 1 : 0;
    }
    return results_;
  }
  pending_.clear();
  pending_index_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (shared_.use_cache()) {
      if (const auto cached =
              shared_.cache_lookup(batch.counts(i), batch.hash(i))) {
        results_[i] = *cached ? 1 : 0;
        continue;
      }
    }
    pending_.push_back(Job{batch.counts(i), batch.hash(i)});
    pending_index_.push_back(i);
  }
  if (pending_.empty()) return results_;

  // A single job that a dispatch round-trip could only slow down runs on
  // the shared evaluator, which does its own cache store and stat
  // accounting — exactly the serial code path.
  if (pending_.size() == 1) {
    results_[pending_index_[0]] =
        shared_.feasible(pending_[0].counts, pending_[0].hash) ? 1 : 0;
    return results_;
  }

  job_results_.assign(pending_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    njobs_ = pending_.size();
    unfinished_ = contexts_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
  }

  // Merge on the calling thread: shared cache and stats are only ever
  // touched here, so they need no synchronization.
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    const bool ok = job_results_[k] != 0;
    if (shared_.use_cache()) {
      shared_.cache_store(pending_[k].counts, pending_[k].hash, ok);
    }
    results_[pending_index_[k]] = ok ? 1 : 0;
  }
  shared_.absorb_external(static_cast<long long>(pending_.size()), 0);
  return results_;
}

}  // namespace klotski::core
