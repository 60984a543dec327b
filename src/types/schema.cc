#include "types/schema.h"

#include "common/string_util.h"

namespace htg {

int Schema::FindColumn(std::string_view name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return -1;
}

Result<int> Schema::ResolveColumn(std::string_view name) const {
  const int idx = FindColumn(name);
  if (idx < 0) {
    return Status::BindError("unknown column: " + std::string(name));
  }
  return idx;
}

Schema Schema::Project(const std::vector<int>& indexes) const {
  Schema out;
  for (int i : indexes) out.AddColumn(columns_[i]);
  return out;
}

std::string Schema::ToString() const {
  std::string out;
  for (int i = 0; i < num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ' ';
    out += DataTypeName(columns_[i].type);
    if (columns_[i].fixed_length > 0) {
      out += StringPrintf("(%d)", columns_[i].fixed_length);
    }
    if (columns_[i].filestream) out += " FILESTREAM";
  }
  return out;
}

}  // namespace htg
