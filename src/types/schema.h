#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "types/data_type.h"

namespace htg {

// One column of a table or intermediate result.
struct Column {
  std::string name;
  DataType type = DataType::kInt32;
  // For CHAR(n): the blank-padded width. 0 = variable length.
  int fixed_length = 0;
  // NCHAR/NVARCHAR: stored as UTF-16 (2 bytes per character), the SQL
  // Server 2008 behaviour that makes "straightforward" text imports
  // double in size (paper Table 1). Unicode compression arrived only in
  // 2008 R2, so ROW compression does not shrink these.
  bool utf16 = false;
  bool nullable = true;
  // SQL Server 2008 FILESTREAM attribute: the value is a reference into the
  // FileStreamStore, not inline bytes.
  bool filestream = false;
  // ROWGUIDCOL (required alongside FILESTREAM in the paper's example).
  bool rowguid = false;
};

// An ordered set of columns. Doubles as the schema of base tables and of
// every operator's output.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column column) { columns_.push_back(std::move(column)); }

  // Index of the named column (case-insensitive), or -1.
  int FindColumn(std::string_view name) const;

  // Like FindColumn but errors with the table context on failure.
  Result<int> ResolveColumn(std::string_view name) const;

  // The columns at `indexes`, in that order.
  Schema Project(const std::vector<int>& indexes) const;

  // "name TYPE, name TYPE, ..." — used by EXPLAIN and error messages.
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace htg

