#pragma once

// Traced statement execution: parse, plan, then open and drain the plan
// with operator statistics on, each step in its own span. Operator self
// time (own time minus the children's) accumulates per operator kind.

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "sql/engine.h"

namespace htgbench {

struct PlanProfile {
  // Self milliseconds per operator kind (scan, filter, hash_aggregate,
  // stream_aggregate, hash_join, merge_join, cross_apply, sort,
  // sequence_project, gather, other). Below an exchange, times are summed
  // over workers; the exchange itself is charged wall time.
  std::map<std::string, double> self_ms;
  // Summed worker time of the pipelines below parallel exchanges.
  double worker_ms = 0;
  // Rows produced per operator kind (summed over workers).
  std::map<std::string, uint64_t> rows_out;
  // High-water of any one statement's query-memory charge.
  int64_t peak_mem_bytes = 0;
};

// The operator kinds reported as exec.self_ms.<kind>.
const std::vector<std::string>& OperatorKinds();

// Runs `sql` traced: spans "sql.parse" (ParseSql), "sql.plan"
// (SqlEngine::Plan, which parses again) and "exec.execute.<label>"
// (Operator::Open + DrainIterator). Adds operator self times to *profile.
htg::Result<std::vector<htg::Row>> RunProfiled(htg::sql::SqlEngine* engine,
                                               const std::string& sql,
                                               const std::string& label,
                                               Tracer* tracer,
                                               PlanProfile* profile);

// Runs a SELECT the way the workload measures it: untraced through
// SqlEngine::Execute (the caller's path), traced through RunProfiled.
// Counts the attempt, and any error, in *outcome.
bool RunSelect(htg::sql::SqlEngine* engine, const char* sql,
               const char* label, bool traced, Tracer* tracer,
               PlanProfile* profile, Outcome* outcome,
               std::vector<htg::Row>* rows);

}  // namespace htgbench
