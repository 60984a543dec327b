// Lint fixture: reserving exactly the new size once per batch makes a
// vector reallocate and move every element on every call, so collecting
// a stream this way is quadratic.
// expect-lint: exact-reserve

#include <string>
#include <vector>

namespace htg {

// Both spellings trip the rule: member access and pointer access.
void AppendBatches(const std::vector<std::vector<int>>& batches,
                   std::vector<int>* out, std::vector<int>& copy) {
  for (const std::vector<int>& batch : batches) {
    out->reserve(out->size() + batch.size());
    copy.reserve(copy.size() + batch.size());
    for (int v : batch) {
      out->push_back(v);
      copy.push_back(v);
    }
  }
}

// Clean: a total reserved once, and a size taken from another container.
void Flatten(const std::vector<std::vector<int>>& batches,
             std::vector<int>* out, const std::vector<int>& extra) {
  size_t total = 0;
  for (const std::vector<int>& batch : batches) total += batch.size();
  out->reserve(total);
  std::vector<int> merged;
  merged.reserve(extra.size() + 1);
}

// Suppressed with a reason: std::string's reserve grows geometrically.
void Widen(const std::string& s, std::string* out) {
  out->reserve(out->size() + s.size() * 2);  // NOLINT(htg-exact-reserve)
}

}  // namespace htg
