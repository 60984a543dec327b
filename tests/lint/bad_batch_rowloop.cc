// Fixture: a src/exec batch kernel that secretly degrades to per-row
// pulls, in a class deriving BatchIterator and in a free function whose
// name contains Batch.
// expect-lint: exec-batch-rowloop

#include "exec/batch.h"

namespace htg::exec {

class LeakyBatchScan : public BatchIterator {
 public:
  explicit LeakyBatchScan(udf::RowSource* child) : child_(child) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    batch->Clear();
    Row row;
    while (!batch->full() && child_->Next(&row)) {
      batch->AppendRow(std::move(row));
      row.clear();
    }
    return batch->num_rows() > 0;
  }

 private:
  udf::RowSource* child_;
};

inline Status DrainOneBatch(udf::RowSource* iter, RowBatch* batch) {
  batch->Clear();
  Row row;
  while (!batch->full() && iter->Next(&row)) {
    batch->AppendRow(std::move(row));
    row.clear();
  }
  return iter->status();
}

}  // namespace htg::exec
