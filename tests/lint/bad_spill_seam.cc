// Lint fixture: an operator writing its own spill partitions instead of
// going through PartitionSpill. NOT compiled; scanned only by
// `htg_lint.py --selftest`, which asserts each annotated rule fires.
#include "storage/spill.h"

namespace htg::exec {

Status SpillOwnPartitions(storage::TableSpace* space, const Row& row) {
  HTG_ASSIGN_OR_RETURN(auto file,
                       storage::SpillFile::Create(space, "mine"));  // expect-lint: exec-spill-seam
  storage::SpillRunWriter writer(file.get());  // expect-lint: exec-spill-seam
  return writer.Add(row);
}

}  // namespace htg::exec
