#include "plan_profile.h"

#include <algorithm>
#include <cstdlib>

#include "exec/operator.h"
#include "sql/parser.h"

namespace htgbench {
namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Operator kind from its EXPLAIN label.
std::string KindOf(const std::string& describe) {
  if (StartsWith(describe, "Table Scan") ||
      StartsWith(describe, "Clustered Index Scan")) {
    return "scan";
  }
  if (StartsWith(describe, "Filter")) return "filter";
  if (StartsWith(describe, "Parallelism (Gather Streams) + Hash Match")) {
    return "hash_aggregate";
  }
  if (StartsWith(describe, "Hash Match (Aggregate)")) return "hash_aggregate";
  if (StartsWith(describe, "Stream Aggregate")) return "stream_aggregate";
  if (StartsWith(describe, "Hash Match (")) return "hash_join";
  if (StartsWith(describe, "Merge Join")) return "merge_join";
  if (StartsWith(describe, "Nested Loops (Cross Apply)")) return "cross_apply";
  if (StartsWith(describe, "Sequence Project")) return "sequence_project";
  if (StartsWith(describe, "Sort")) return "sort";
  if (StartsWith(describe, "Parallelism (Gather Streams)")) return "gather";
  return "other";
}

// Degree of parallelism printed in an exchange label ("DOP=4"); 0 when the
// operator is not an exchange.
int ExchangeDop(const std::string& describe) {
  if (!StartsWith(describe, "Parallelism (Gather Streams)")) return 0;
  const size_t at = describe.find("DOP=");
  if (at == std::string::npos) return 1;
  return std::max(1, atoi(describe.c_str() + at + 4));
}

uint64_t OwnNs(const htg::exec::Operator& op) {
  const htg::exec::OperatorStats& s = op.stats();
  return s.open_ns.load() + s.next_ns.load() + s.close_ns.load();
}

// Inclusive time of `op`. Operators that never opened (EXPLAIN-only
// markers such as Distribute Streams) are transparent: their children's
// time stands in for theirs.
uint64_t InclusiveNs(const htg::exec::Operator& op) {
  if (op.stats().open_calls.load() == 0) {
    uint64_t sum = 0;
    for (const htg::exec::Operator* child : op.children()) {
      sum += InclusiveNs(*child);
    }
    return sum;
  }
  return OwnNs(op);
}

void Accumulate(const htg::exec::Operator& op, PlanProfile* profile) {
  uint64_t children_ns = 0;
  for (const htg::exec::Operator* child : op.children()) {
    children_ns += InclusiveNs(*child);
    Accumulate(*child, profile);
  }
  const htg::exec::OperatorStats& s = op.stats();
  if (s.open_calls.load() == 0) return;
  const std::string describe = op.Describe();
  const int dop = ExchangeDop(describe);
  double self_ns = 0;
  if (dop > 0) {
    // Children ran on `dop` workers and their times are summed; charge
    // the exchange its wall time minus the workers' average share.
    profile->worker_ms += static_cast<double>(children_ns) * 1e-6;
    self_ns = static_cast<double>(OwnNs(op)) -
              static_cast<double>(children_ns) / dop;
  } else {
    self_ns = static_cast<double>(OwnNs(op)) - static_cast<double>(children_ns);
  }
  const std::string kind = KindOf(describe);
  profile->self_ms[kind] += std::max(0.0, self_ns) * 1e-6;
  profile->rows_out[kind] += s.rows_out.load();
}

}  // namespace

const std::vector<std::string>& OperatorKinds() {
  static const std::vector<std::string> kinds = {
      "scan",      "filter",           "hash_aggregate", "stream_aggregate",
      "hash_join", "merge_join",       "cross_apply",    "sort",
      "gather",    "sequence_project", "other"};
  return kinds;
}

htg::Result<std::vector<htg::Row>> RunProfiled(htg::sql::SqlEngine* engine,
                                               const std::string& sql,
                                               const std::string& label,
                                               Tracer* tracer,
                                               PlanProfile* profile) {
  const uint64_t stmt = tracer->NextStmt();
  ScopedSpan statement(tracer, ("stmt." + label).c_str(), stmt);
  {
    ScopedSpan parse(tracer, "sql.parse", stmt);
    auto parsed = htg::sql::ParseSql(sql);
    if (!parsed.ok()) return parsed.status();
  }
  htg::Result<htg::exec::OperatorPtr> plan = [&] {
    ScopedSpan span(tracer, "sql.plan", stmt);
    return engine->Plan(sql);
  }();
  if (!plan.ok()) return plan.status();

  std::vector<htg::Row> rows;
  {
    ScopedSpan span(tracer, ("exec.execute." + label).c_str(), stmt);
    htg::exec::ExecContext ctx = htg::exec::ExecContext::For(engine->db());
    ctx.collect_stats = true;
    auto iter = (*plan)->Open(&ctx);
    if (!iter.ok()) return iter.status();
    const htg::Status drained = htg::exec::DrainIterator(iter->get(), &rows);
    if (!drained.ok()) return drained;
    iter->reset();
    const int64_t peak = static_cast<int64_t>(ctx.mem->peak());
    profile->peak_mem_bytes = std::max(profile->peak_mem_bytes, peak);
  }
  Accumulate(**plan, profile);
  return rows;
}

bool RunSelect(htg::sql::SqlEngine* engine, const char* sql,
               const char* label, bool traced, Tracer* tracer,
               PlanProfile* profile, Outcome* outcome,
               std::vector<htg::Row>* rows) {
  if (traced) {
    auto result = RunProfiled(engine, sql, label, tracer, profile);
    if (!outcome->Check(result.status(), label)) return false;
    *rows = std::move(*result);
    return true;
  }
  auto result = engine->Execute(sql);
  if (!outcome->Check(result.status(), label)) return false;
  *rows = std::move(result->rows);
  return true;
}

}  // namespace htgbench
