#include "workflow/provenance.h"

#include <set>

#include "common/string_util.h"

namespace htg::workflow {

Result<ProvenanceRecorder> ProvenanceRecorder::Open(sql::SqlEngine* engine) {
  ProvenanceRecorder recorder(engine);
  Database* db = engine->db();
  if (!db->GetTable("DataProvenance").ok()) {
    Result<sql::QueryResult> created = engine->Execute(R"sql(
        CREATE TABLE DataProvenance (
          event_id BIGINT PRIMARY KEY,
          tool VARCHAR(100) NOT NULL,
          parameters VARCHAR(500),
          input_artifact VARCHAR(300),
          output_artifact VARCHAR(300) NOT NULL
        ))sql");
    if (!created.ok()) return created.status();
  } else {
    // Resume numbering after existing events.
    Result<sql::QueryResult> max_id = engine->Execute(
        "SELECT MAX(event_id) FROM DataProvenance");
    if (max_id.ok() && !max_id->rows.empty() &&
        !max_id->rows[0][0].is_null()) {
      recorder.next_id_ = max_id->rows[0][0].AsInt64() + 1;
    }
  }
  return recorder;
}

Result<int64_t> ProvenanceRecorder::Record(const std::string& tool,
                                           const std::string& parameters,
                                           const std::string& input_artifact,
                                           const std::string& output_artifact) {
  const int64_t id = next_id_++;
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * table,
                       engine_->db()->GetTable("DataProvenance"));
  HTG_RETURN_IF_ERROR(engine_->db()->InsertRow(
      table, Row{Value::Int64(id), Value::String(tool),
                 Value::String(parameters), Value::String(input_artifact),
                 Value::String(output_artifact)}));
  return id;
}

Result<std::vector<ProvenanceRecorder::Event>> ProvenanceRecorder::LineageOf(
    const std::string& artifact) {
  // Load all events once, then walk the chain backwards from `artifact`.
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * table,
                       engine_->db()->GetTable("DataProvenance"));
  std::vector<Event> all;
  {
    std::unique_ptr<storage::RowIterator> scan = table->table->NewScan();
    RowBatch batch;
    const auto text = [&batch](size_t c, size_t r) {
      const Value& v = batch.column(c)[r];
      return v.is_null() ? std::string() : v.AsString();
    };
    while (scan->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.ActiveRows(); ++i) {
        const size_t r = batch.ActiveIndex(i);
        Event event;
        event.event_id = batch.column(0)[r].AsInt64();
        event.sequence = event.event_id;
        event.tool = text(1, r);
        event.parameters = text(2, r);
        event.input_artifact = text(3, r);
        event.output_artifact = text(4, r);
        all.push_back(std::move(event));
      }
    }
    HTG_RETURN_IF_ERROR(scan->status());
  }
  std::set<std::string> frontier = {artifact};
  std::set<int64_t> selected;
  // Fixed-point: pull in every event whose output feeds the frontier.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Event& event : all) {
      if (selected.count(event.event_id) > 0) continue;
      if (frontier.count(event.output_artifact) > 0) {
        selected.insert(event.event_id);
        if (!event.input_artifact.empty()) {
          frontier.insert(event.input_artifact);
        }
        changed = true;
      }
    }
  }
  std::vector<Event> lineage;
  for (const Event& event : all) {
    if (selected.count(event.event_id) > 0) lineage.push_back(event);
  }
  return lineage;
}

}  // namespace htg::workflow
