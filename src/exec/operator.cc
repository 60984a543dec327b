#include "exec/operator.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/string_util.h"

namespace htg::exec {

namespace {

// Times NextBatch() and counts rows and batches into the owning
// operator's stats. Only constructed under EXPLAIN ANALYZE, so the two
// clock reads per batch are never on the normal query path.
class StatsIterator : public storage::RowIterator {
 public:
  StatsIterator(std::unique_ptr<storage::RowIterator> inner,
                OperatorStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  ~StatsIterator() override {
    Stopwatch sw;
    inner_.reset();
    stats_->close_ns.fetch_add(sw.ElapsedNanos(), std::memory_order_relaxed);
  }

  bool NextBatch(RowBatch* batch) override {
    Stopwatch sw;
    const bool ok = inner_->NextBatch(batch);
    stats_->next_ns.fetch_add(sw.ElapsedNanos(), std::memory_order_relaxed);
    if (ok) {
      stats_->rows_out.fetch_add(batch->ActiveRows(),
                                 std::memory_order_relaxed);
      stats_->batches_out.fetch_add(1, std::memory_order_relaxed);
    }
    return ok;
  }

  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<storage::RowIterator> inner_;
  OperatorStats* stats_;
};

class CountingIterator : public storage::RowIterator {
 public:
  CountingIterator(std::unique_ptr<storage::RowIterator> inner,
                   uint64_t* counter, uint64_t* batch_counter)
      : inner_(std::move(inner)),
        counter_(counter),
        batch_counter_(batch_counter) {}

  bool NextBatch(RowBatch* batch) override {
    const bool ok = inner_->NextBatch(batch);
    if (ok) {
      *counter_ += batch->ActiveRows();
      if (batch_counter_ != nullptr) ++*batch_counter_;
    }
    return ok;
  }

  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<storage::RowIterator> inner_;
  uint64_t* counter_;
  uint64_t* batch_counter_;
};

void ExplainRec(const Operator& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.Describe());
  out->push_back('\n');
  for (const Operator* child : op.children()) {
    ExplainRec(*child, depth + 1, out);
  }
}

uint64_t OwnNs(const OperatorStats& s) {
  return s.open_ns.load(std::memory_order_relaxed) +
         s.next_ns.load(std::memory_order_relaxed) +
         s.close_ns.load(std::memory_order_relaxed);
}

// Inclusive time of `op`. Operators that never opened are transparent:
// their children's time stands in for theirs.
uint64_t InclusiveNs(const Operator& op) {
  if (op.stats().open_calls.load(std::memory_order_relaxed) > 0) {
    return OwnNs(op.stats());
  }
  uint64_t sum = 0;
  for (const Operator* child : op.children()) sum += InclusiveNs(*child);
  return sum;
}

void ExplainAnalyzeRec(const Operator& op, int depth, std::string* out) {
  const size_t indent = static_cast<size_t>(depth) * 2;
  out->append(indent, ' ');
  out->append(op.Describe());
  const OperatorStats& s = op.stats();
  const uint64_t opens = s.open_calls.load(std::memory_order_relaxed);
  if (opens > 0) {
    const uint64_t rows = s.rows_out.load(std::memory_order_relaxed);
    const uint64_t batches = s.batches_out.load(std::memory_order_relaxed);
    const int64_t est = op.EstimateRows();
    const double total_ns = static_cast<double>(OwnNs(s));
    double children_ns = 0;
    for (const Operator* child : op.children()) {
      children_ns += static_cast<double>(InclusiveNs(*child));
    }
    // Self time is inclusive time minus the children's. Below an exchange
    // the children ran on the workers and their times are summed, so the
    // exchange is charged its wall time minus the workers' average, and
    // the summed worker time is shown next to it.
    const size_t workers = s.worker_rows.size();
    const double self_ns =
        total_ns - (workers > 0 ? children_ns / static_cast<double>(workers)
                                : children_ns);
    out->append(StringPrintf(" (actual rows=%llu, est rows=%s, opens=%llu, "
                             "time=%.3f ms, self=%.3f ms",
                             static_cast<unsigned long long>(rows),
                             est < 0 ? "?"
                                     : StringPrintf("%lld",
                                                    static_cast<long long>(est))
                                           .c_str(),
                             static_cast<unsigned long long>(opens),
                             total_ns / 1e6, std::max(0.0, self_ns) / 1e6));
    if (workers > 0) {
      out->append(StringPrintf(", worker time=%.3f ms", children_ns / 1e6));
    }
    out->push_back(')');
    if (batches > 0) {
      out->append(StringPrintf(
          " (batches=%llu, rows/batch=%.1f, self ns/row=%.1f)",
          static_cast<unsigned long long>(batches),
          static_cast<double>(rows) / static_cast<double>(batches),
          std::max(0.0, self_ns) /
              static_cast<double>(std::max<uint64_t>(rows, 1))));
    }
    const uint64_t peak_mem =
        s.peak_mem_bytes.load(std::memory_order_relaxed);
    const uint64_t spill_runs = s.spill_runs.load(std::memory_order_relaxed);
    if (peak_mem > 0 || spill_runs > 0) {
      out->append(StringPrintf(" (peak-mem=%.1f KiB",
                               static_cast<double>(peak_mem) / 1024.0));
      const uint32_t layouts =
          s.agg_key_layouts.load(std::memory_order_relaxed);
      if (layouts != 0) {
        // A table that met a non-integer key re-encoded to values.
        out->append(StringPrintf(
            ", groups=%llu keys=%s",
            static_cast<unsigned long long>(
                s.agg_groups.load(std::memory_order_relaxed)),
            (layouts & OperatorStats::kValueKeys) != 0 ? "values"
                                                       : "packed"));
      }
      if (spill_runs > 0) {
        out->append(StringPrintf(
            ", spill runs=%llu, spill bytes=%llu",
            static_cast<unsigned long long>(spill_runs),
            static_cast<unsigned long long>(
                s.spill_bytes.load(std::memory_order_relaxed))));
      }
      out->push_back(')');
    }
    const uint64_t read = s.pages.read.load(std::memory_order_relaxed);
    const uint64_t skipped = s.pages.skipped.load(std::memory_order_relaxed);
    if (read + skipped > 0) {
      out->append(
          StringPrintf(" (pages read %llu of %llu)",
                       static_cast<unsigned long long>(read),
                       static_cast<unsigned long long>(read + skipped)));
    }
    if (s.seeks.load(std::memory_order_relaxed) > 0) out->append(" (seek)");
  }
  out->push_back('\n');
  for (size_t w = 0; w < s.worker_rows.size(); ++w) {
    out->append(indent + 2, ' ');
    const uint64_t wbatches =
        w < s.worker_batches.size() ? s.worker_batches[w] : 0;
    out->append(StringPrintf(
        "[worker %zu] morsels=%llu rows=%llu", w,
        static_cast<unsigned long long>(
            w < s.worker_morsels.size() ? s.worker_morsels[w] : 0),
        static_cast<unsigned long long>(s.worker_rows[w])));
    if (wbatches > 0) {
      out->append(StringPrintf(
          " batches=%llu rows/batch=%.1f",
          static_cast<unsigned long long>(wbatches),
          static_cast<double>(s.worker_rows[w]) /
              static_cast<double>(wbatches)));
    }
    out->push_back('\n');
  }
  for (const Operator* child : op.children()) {
    ExplainAnalyzeRec(*child, depth + 1, out);
  }
}

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> Operator::Open(
    ExecContext* ctx) {
  if (!ctx->collect_stats) return OpenImpl(ctx);
  OperatorStats* stats = &stats_;
  Stopwatch sw;
  Result<std::unique_ptr<storage::RowIterator>> result = OpenImpl(ctx);
  stats->open_ns.fetch_add(sw.ElapsedNanos(), std::memory_order_relaxed);
  stats->open_calls.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) return result;
  return {std::make_unique<StatsIterator>(std::move(result).value(), stats)};
}

std::string ExplainPlan(const Operator& root) {
  std::string out;
  ExplainRec(root, 0, &out);
  return out;
}

std::string ExplainAnalyzePlan(const Operator& root) {
  std::string out;
  ExplainAnalyzeRec(root, 0, &out);
  return out;
}

std::string DescribeColumns(const Schema& schema) {
  std::string out = " columns (";
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += schema.column(i).name;
  }
  out += ")";
  return out;
}

Status DrainIterator(storage::RowIterator* iter, std::vector<Row>* rows) {
  RowBatch batch;
  while (iter->NextBatch(&batch)) {
    const size_t n = batch.ActiveRows();
    // push_back grows the vector geometrically; reserving the exact new
    // size once per batch would reallocate and move every row each time.
    for (size_t i = 0; i < n; ++i) {
      const size_t r = batch.ActiveIndex(i);
      Row row;
      row.reserve(batch.num_columns());
      // Selection vectors never repeat a physical row, so moving the
      // values out of the batch (about to be refilled) is safe.
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        row.push_back(std::move(batch.column(c)[r]));
      }
      rows->push_back(std::move(row));
    }
  }
  return iter->status();
}

std::unique_ptr<storage::RowIterator> WrapCounting(
    std::unique_ptr<storage::RowIterator> inner, uint64_t* counter,
    uint64_t* batch_counter) {
  return std::make_unique<CountingIterator>(std::move(inner), counter,
                                            batch_counter);
}

}  // namespace htg::exec
