// Fixture: a src/exec helper that is no batch kernel (no Batch in its
// name, no BatchIterator around it) and still pulls its input row by
// row, as the joins and the spill readers once did. The rule covers all
// of src/exec but the TVF seam, so it must fire here too.
// expect-lint: exec-batch-rowloop

#include "udf/function.h"

namespace htg::exec {

inline Status CountRows(udf::RowSource* input, size_t* rows) {
  Row row;
  while (input->Next(&row)) ++*rows;
  return input->status();
}

}  // namespace htg::exec
