#include "exec/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/synchronization.h"
#include "exec/batch.h"

namespace htg::exec {

std::vector<Morsel> MakeMorsels(size_t num_pages, size_t morsel_pages) {
  std::vector<Morsel> morsels;
  if (morsel_pages == 0) morsel_pages = 1;
  morsels.reserve(num_pages / morsel_pages + 1);
  for (size_t p = 0; p < num_pages; p += morsel_pages) {
    morsels.push_back({p, std::min(p + morsel_pages, num_pages)});
  }
  return morsels;
}

size_t ChooseMorselPages(size_t num_pages, int dop) {
  if (dop < 1) dop = 1;
  // Aim for ~4 morsels per worker so the shared counter can rebalance
  // skew, but never below one page per morsel.
  const size_t target = num_pages / (4 * static_cast<size_t>(dop));
  return std::max<size_t>(
      1, std::min(kDefaultMorselPages, std::max<size_t>(1, target)));
}

Status ParallelDrainMorsels(ThreadPool* pool, int dop, size_t num_morsels,
                            const std::function<Status(int, size_t)>& fn) {
  if (num_morsels == 0) return Status::OK();
  HTG_METRIC_COUNTER("exec.morsels.dispatched")->Add(num_morsels);
  if (dop < 1) dop = 1;
  dop = std::min<size_t>(dop, num_morsels);
  if (dop == 1 || pool == nullptr) {
    for (size_t i = 0; i < num_morsels; ++i) {
      HTG_RETURN_IF_ERROR(fn(0, i));
    }
    return Status::OK();
  }
  // Shared-counter work stealing. As in ThreadPool::ParallelFor, the
  // caller drains morsels itself (as worker 0), so completion never
  // depends on the helper tasks being scheduled — helpers that start late
  // find the counter exhausted and return. The state is shared-owned
  // because such helpers can outlive this call. After a failure, workers
  // keep claiming (so the completed count still reaches num_morsels) but
  // skip the actual work.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<int> next_worker{1};  // 0 is the caller
    std::atomic<bool> failed{false};
    size_t n = 0;
    int dop = 0;
    std::function<Status(int, size_t)> fn;
    // Per-worker slots: worker w writes statuses[w] only; the caller
    // reads them after the completion barrier below (the cv handshake
    // publishes the writes).
    std::vector<Status> statuses;
    Mutex mu{"ParallelDrainMorsels::mu"};
    CondVar cv;
    size_t completed HTG_GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<State>();
  state->n = num_morsels;
  state->dop = dop;
  state->fn = fn;
  state->statuses.assign(dop, Status::OK());
  auto drain = [](const std::shared_ptr<State>& s, int worker) {
    for (size_t i = s->next.fetch_add(1); i < s->n;
         i = s->next.fetch_add(1)) {
      // A morsel drained by a helper rather than the caller was "stolen"
      // off the shared counter — the steal rate is the load-balance signal.
      if (worker != 0) HTG_METRIC_COUNTER("exec.morsels.stolen")->Add(1);
      if (!s->failed.load(std::memory_order_acquire)) {
        Status status = s->fn(worker, i);
        if (!status.ok()) {
          s->statuses[worker] = std::move(status);
          s->failed.store(true, std::memory_order_release);
        }
      }
      bool all_done = false;
      {
        MutexLock lock(&s->mu);
        all_done = ++s->completed == s->n;
      }
      if (all_done) s->cv.NotifyAll();
    }
  };
  for (int w = 1; w < dop; ++w) {
    pool->Submit([state, drain] {
      const int worker = state->next_worker.fetch_add(1);
      if (worker < state->dop) drain(state, worker);
    });
  }
  drain(state, 0);
  {
    MutexLock lock(&state->mu);
    while (state->completed != state->n) state->cv.Wait(&state->mu);
  }
  for (Status& s : state->statuses) {
    HTG_RETURN_IF_ERROR(std::move(s));
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// MorselDriver.
// --------------------------------------------------------------------------

MorselDriver::MorselDriver(Operator* child, std::vector<Morsel> morsels,
                           int dop, const ExecContext& ctx,
                           OperatorStats* stats)
    : child_(child),
      morsels_(std::move(morsels)),
      workers_(std::min<size_t>(dop < 1 ? 1 : dop,
                                std::max<size_t>(1, morsels_.size())),
               ctx),
      pool_(ctx.pool),
      stats_(ctx.collect_stats ? stats : nullptr) {
  if (stats_ != nullptr) {
    stats_->worker_rows.assign(workers_.size(), 0);
    stats_->worker_morsels.assign(workers_.size(), 0);
    stats_->worker_batches.assign(workers_.size(), 0);
  }
}

Result<MorselDriver> MorselDriver::Plan(Operator* child,
                                        catalog::TableDef* heap, int dop,
                                        size_t morsel_pages,
                                        const ExecContext& ctx,
                                        OperatorStats* stats) {
  HTG_ASSIGN_OR_RETURN(const Morsel visible, PlanVisibleHeap(heap, ctx));
  std::vector<Morsel> morsels = MakeMorsels(visible.end_page, morsel_pages);
  if (!morsels.empty()) morsels.back().tail_rows = visible.tail_rows;
  return MorselDriver(child, std::move(morsels), dop, ctx, stats);
}

Result<std::unique_ptr<storage::RowIterator>> MorselDriver::OpenMorsel(
    int worker, size_t m) {
  ExecContext* wctx = &workers_[worker];
  wctx->morsel = &morsels_[m];
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                       child_->Open(wctx));
  if (stats_ != nullptr) {
    // Count the rows (and batches) this worker consumes, for the
    // per-worker skew lines under the exchange in ANALYZE output.
    iter = WrapCounting(std::move(iter), &stats_->worker_rows[worker],
                        &stats_->worker_batches[worker]);
    ++stats_->worker_morsels[worker];
  }
  return iter;
}

Status MorselDriver::Run(
    const std::function<Status(int, storage::RowIterator*)>& consume) {
  return ParallelDrainMorsels(
      pool_, dop(), morsels_.size(), [&](int worker, size_t m) -> Status {
        HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                             OpenMorsel(worker, m));
        return consume(worker, iter.get());
      });
}

// --------------------------------------------------------------------------
// DistributeStreamsOp.
// --------------------------------------------------------------------------

DistributeStreamsOp::DistributeStreamsOp(std::unique_ptr<TableScanOp> scan,
                                         int dop, size_t morsel_pages)
    : dop_(dop < 1 ? 1 : dop), morsel_pages_(morsel_pages) {
  scan->set_distributed();
  child_ = std::move(scan);
}

Result<std::unique_ptr<storage::RowIterator>> DistributeStreamsOp::OpenImpl(
    ExecContext* ctx) {
  return child_->Open(ctx);
}

std::string DistributeStreamsOp::Describe() const {
  return StringPrintf(
      "Parallelism (Distribute Streams) [DOP=%d, morsels of %zu pages]", dop_,
      morsel_pages_);
}

// --------------------------------------------------------------------------
// ParallelMapOp.
// --------------------------------------------------------------------------

namespace {

// The consumer side of ParallelMapOp. Helper tasks claim morsels in
// order, at most `window` past the last one the consumer took and only
// while half the query budget has room (MayClaim), and park each
// morsel's batches in its slot; the consumer hands the slots out in
// morsel order. A morsel nobody has claimed when the consumer reaches it
// streams straight from the consumer's thread (as worker 0), as in the
// serial plan, so the stream never waits on a pool that is busy
// elsewhere and a tight budget degrades the gather to serial. Parked
// batches are charged without a check (the gather has no out-of-core
// fallback), each released as it is handed out.
class GatherIterator : public BatchIterator {
 public:
  GatherIterator(MorselDriver driver, MemoryContext* mem,
                 OperatorStats* stats)
      : state_(std::make_shared<State>(std::move(driver), mem)),
        stats_(stats) {
    HTG_METRIC_COUNTER("exec.morsels.dispatched")
        ->Add(state_->driver.num_morsels());
    ThreadPool* pool = state_->driver.pool();
    if (pool == nullptr) return;
    for (int w = 1; w < state_->driver.dop(); ++w) {
      pool->Submit([state = state_] {
        const int worker = state->next_worker.fetch_add(1);
        if (worker < state->driver.dop()) Help(state.get(), worker);
      });
    }
  }

  ~GatherIterator() override {
    live_.reset();
    {
      // Helpers still inside a morsel use the operator tree and the
      // statement's context: wait them out. Later ones see `stop`.
      MutexLock lock(&state_->mu);
      state_->stop = true;
      while (state_->active > 0) state_->cv.Wait(&state_->mu);
      state_->slots.clear();
    }
    state_->cv.NotifyAll();
    RecordPeakMem(stats_, state_->charge.peak());
    state_->charge.ReleaseAll();
  }

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    State* s = state_.get();
    for (;;) {
      if (!status_.ok()) return false;
      if (live_ != nullptr) {
        while (live_->NextBatch(batch)) {
          if (batch->ActiveRows() > 0) return true;
        }
        Status status = live_->status();
        live_.reset();
        if (!status.ok()) return Fail(std::move(status));
        continue;
      }
      if (pos_ < current_.batches.size()) {
        *batch = std::move(current_.batches[pos_]);
        s->charge.Release(current_.bytes[pos_]);
        ++pos_;
        return true;
      }
      if (next_ == s->driver.num_morsels()) return false;
      bool run_here = false;
      {
        MutexLock lock(&s->mu);
        if (s->next == next_) {
          ++s->next;
          run_here = true;
        } else {
          while (!s->slots[next_].done) s->cv.Wait(&s->mu);
          current_ = std::move(s->slots[next_]);
          pos_ = 0;
        }
        s->consumed = next_ + 1;
      }
      s->cv.NotifyAll();
      const size_t m = next_++;
      if (run_here) {
        Result<std::unique_ptr<storage::RowIterator>> iter =
            s->driver.OpenMorsel(0, m);
        if (!iter.ok()) return Fail(iter.status());
        live_ = std::move(*iter);
      } else if (!current_.status.ok()) {
        // Batches of the failed morsel stay charged until the destructor.
        return Fail(current_.status);
      }
    }
  }

 private:
  // One morsel's parked output: its batches, each one's charged bytes,
  // and how the morsel ended.
  struct Slot {
    std::vector<RowBatch> batches;
    std::vector<size_t> bytes;
    Status status;
    bool done = false;
  };

  // Shared with the helper tasks, which can outlive the iterator.
  struct State {
    State(MorselDriver d, MemoryContext* m)
        : driver(std::move(d)),
          mem(m),
          charge(m, "Gather Streams"),
          window(static_cast<size_t>(driver.dop())),
          slots(driver.num_morsels()) {}

    MorselDriver driver;
    MemoryContext* mem;
    MemoryCharge charge;
    const size_t window;
    std::atomic<int> next_worker{1};  // 0 is the consumer
    Mutex mu{"GatherIterator::mu"};
    CondVar cv;
    std::vector<Slot> slots HTG_GUARDED_BY(mu);
    size_t next HTG_GUARDED_BY(mu) = 0;      // first unclaimed morsel
    size_t consumed HTG_GUARDED_BY(mu) = 0;  // morsels the consumer took
    size_t largest HTG_GUARDED_BY(mu) = 0;   // bytes of the largest slot
    int active HTG_GUARDED_BY(mu) = 0;       // helpers inside a morsel
    bool stop HTG_GUARDED_BY(mu) = false;    // consumer gone or failed
  };

  bool Fail(Status status) {
    status_ = std::move(status);
    MutexLock lock(&state_->mu);
    state_->stop = true;
    return false;
  }

  // Whether a helper may claim the next morsel: within the window, and
  // half the budget has room for it and for the morsels other helpers
  // are still parking, each as large as any parked yet. The operators
  // above the gather always keep the other half.
  static bool MayClaim(State* s) HTG_REQUIRES(s->mu) {
    if (s->next >= s->consumed + s->window) return false;
    const size_t parking = s->largest * (static_cast<size_t>(s->active) + 1);
    return s->mem == nullptr || s->mem->unlimited() ||
           s->mem->used() + parking <= s->mem->budget() / 2;
  }

  // Opens morsel `m` as `worker` and parks its batches, charging each.
  static Slot Park(State* s, int worker, size_t m) {
    Slot slot;
    slot.done = true;
    Result<std::unique_ptr<storage::RowIterator>> iter =
        s->driver.OpenMorsel(worker, m);
    if (!iter.ok()) {
      slot.status = iter.status();
      return slot;
    }
    for (;;) {
      RowBatch batch;
      if (!(*iter)->NextBatch(&batch)) break;
      if (batch.ActiveRows() == 0) continue;
      const size_t bytes = ApproxBatchBytes(batch);
      s->charge.AddUnchecked(bytes);
      slot.bytes.push_back(bytes);
      slot.batches.push_back(std::move(batch));
    }
    slot.status = (*iter)->status();
    return slot;
  }

  static void Help(State* s, int worker) {
    for (;;) {
      size_t m = 0;
      {
        MutexLock lock(&s->mu);
        while (!s->stop && s->next < s->slots.size() && !MayClaim(s)) {
          s->cv.Wait(&s->mu);
        }
        if (s->stop || s->next >= s->slots.size()) return;
        m = s->next++;
        ++s->active;
      }
      // A morsel a helper runs was "stolen" off the consumer.
      HTG_METRIC_COUNTER("exec.morsels.stolen")->Add(1);
      Slot slot = Park(s, worker, m);
      size_t bytes = 0;
      for (size_t b : slot.bytes) bytes += b;
      {
        MutexLock lock(&s->mu);
        if (!slot.status.ok()) s->stop = true;
        s->largest = std::max(s->largest, bytes);
        s->slots[m] = std::move(slot);
        --s->active;
      }
      s->cv.NotifyAll();
    }
  }

  std::shared_ptr<State> state_;
  OperatorStats* stats_;
  size_t next_ = 0;  // next morsel to take
  // The morsel being handed out: streamed (run here) or parked.
  std::unique_ptr<storage::RowIterator> live_;
  Slot current_;
  size_t pos_ = 0;  // current_'s next batch
};

}  // namespace

ParallelMapOp::ParallelMapOp(OperatorPtr child, catalog::TableDef* heap,
                             int dop, size_t morsel_pages)
    : child_(std::move(child)),
      heap_(heap),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages) {}

Result<std::unique_ptr<storage::RowIterator>> ParallelMapOp::OpenImpl(
    ExecContext* ctx) {
  OperatorStats* stats = mutable_stats();
  HTG_ASSIGN_OR_RETURN(
      MorselDriver driver,
      MorselDriver::Plan(child_.get(), heap_, dop_, morsel_pages_, *ctx,
                         stats));
  return {std::make_unique<GatherIterator>(std::move(driver), ctx->mem.get(),
                                           stats)};
}

std::string ParallelMapOp::Describe() const {
  return StringPrintf("Parallelism (Gather Streams) [DOP=%d, order preserving]",
                      dop_);
}

}  // namespace htg::exec
