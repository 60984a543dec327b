#include "storage/bplus_tree.h"

#include <cassert>

#include "common/metrics.h"

namespace htg::storage {

struct BPlusTree::Node {
  bool is_leaf = true;
  // Leaf: keys_[i] pairs with payloads_[i] and stamps_[i]. Internal:
  // keys_[i] is the smallest key reachable under children_[i + 1].
  std::vector<Row> keys_;
  std::vector<std::string> payloads_;
  std::vector<uint64_t> stamps_;
  std::vector<Node*> children_;
  Node* next_leaf = nullptr;

  ~Node() {
    for (Node* c : children_) delete c;
  }
};

struct BPlusTree::SplitResult {
  Node* new_node = nullptr;  // right sibling, or nullptr if no split
  Row separator;             // smallest key in new_node
};

BPlusTree::BPlusTree(int fanout) : root_(new Node()), fanout_(fanout) {
  if (fanout_ < 4) fanout_ = 4;
}

BPlusTree::~BPlusTree() { delete root_; }

void BPlusTree::Clear() {
  delete root_;
  root_ = new Node();
  size_ = 0;
  num_nodes_ = 1;
  height_ = 1;
}

int BPlusTree::ComparePrefix(const Row& probe, const Row& key) {
  const size_t n = std::min(probe.size(), key.size());
  for (size_t i = 0; i < n; ++i) {
    const int r = probe[i].Compare(key[i]);
    if (r != 0) return r;
  }
  return 0;  // probe prefix matches
}

namespace {

// Full-key comparison, shorter keys sort first on ties.
int CompareFull(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int r = a[i].Compare(b[i]);
    if (r != 0) return r;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

}  // namespace

BPlusTree::SplitResult BPlusTree::InsertInto(Node* node, Row key,
                                             std::string payload,
                                             uint64_t stamp) {
  if (node->is_leaf) {
    // Upper-bound position: equal keys insert to the right (stable).
    size_t pos = node->keys_.size();
    size_t lo = 0, hi = node->keys_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompareFull(key, node->keys_[mid]) < 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    pos = lo;
    node->keys_.insert(node->keys_.begin() + pos, std::move(key));
    node->payloads_.insert(node->payloads_.begin() + pos, std::move(payload));
    node->stamps_.insert(node->stamps_.begin() + pos, stamp);
    if (static_cast<int>(node->keys_.size()) <= fanout_) return {};

    // Split in half.
    Node* right = new Node();
    right->is_leaf = true;
    const size_t mid = node->keys_.size() / 2;
    right->keys_.assign(std::make_move_iterator(node->keys_.begin() + mid),
                        std::make_move_iterator(node->keys_.end()));
    right->payloads_.assign(
        std::make_move_iterator(node->payloads_.begin() + mid),
        std::make_move_iterator(node->payloads_.end()));
    right->stamps_.assign(node->stamps_.begin() + mid, node->stamps_.end());
    node->keys_.resize(mid);
    node->payloads_.resize(mid);
    node->stamps_.resize(mid);
    right->next_leaf = node->next_leaf;
    node->next_leaf = right;
    ++num_nodes_;
    return {right, right->keys_.front()};
  }

  // Internal: find child to descend into.
  size_t child = 0;
  {
    size_t lo = 0, hi = node->keys_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompareFull(key, node->keys_[mid]) < 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    child = lo;
  }
  SplitResult split = InsertInto(node->children_[child], std::move(key),
                                 std::move(payload), stamp);
  if (split.new_node == nullptr) return {};

  node->keys_.insert(node->keys_.begin() + child, std::move(split.separator));
  node->children_.insert(node->children_.begin() + child + 1, split.new_node);
  if (static_cast<int>(node->children_.size()) <= fanout_) return {};

  Node* right = new Node();
  right->is_leaf = false;
  const size_t midk = node->keys_.size() / 2;
  Row up_key = std::move(node->keys_[midk]);
  right->keys_.assign(std::make_move_iterator(node->keys_.begin() + midk + 1),
                      std::make_move_iterator(node->keys_.end()));
  right->children_.assign(node->children_.begin() + midk + 1,
                          node->children_.end());
  node->keys_.resize(midk);
  node->children_.resize(midk + 1);
  ++num_nodes_;
  return {right, std::move(up_key)};
}

void BPlusTree::Insert(Row key, std::string payload, uint64_t stamp) {
  ++size_;
  SplitResult split =
      InsertInto(root_, std::move(key), std::move(payload), stamp);
  if (split.new_node != nullptr) {
    Node* new_root = new Node();
    new_root->is_leaf = false;
    new_root->keys_.push_back(std::move(split.separator));
    new_root->children_.push_back(root_);
    new_root->children_.push_back(split.new_node);
    root_ = new_root;
    ++num_nodes_;
    ++height_;
  }
}

uint64_t BPlusTree::ApproxNodeBytes() const {
  // Rough per-entry key overhead: a Row of Values plus vector slack.
  return num_nodes_ * 64 + size_ * 24;
}

const Row& BPlusTree::Cursor::key() const {
  return static_cast<const Node*>(leaf_)->keys_[index_];
}

const std::string& BPlusTree::Cursor::payload() const {
  return static_cast<const Node*>(leaf_)->payloads_[index_];
}

uint64_t BPlusTree::Cursor::stamp() const {
  return static_cast<const Node*>(leaf_)->stamps_[index_];
}

void BPlusTree::Cursor::Advance() {
  const Node* leaf = static_cast<const Node*>(leaf_);
  ++index_;
  if (index_ >= static_cast<int>(leaf->keys_.size())) {
    leaf_ = leaf->next_leaf;
    index_ = 0;
    if (leaf_ != nullptr) HTG_METRIC_COUNTER("btree.leaf.reads")->Add(1);
    // Skip empty leaves (possible only for a fresh tree's empty root).
    while (leaf_ != nullptr &&
           static_cast<const Node*>(leaf_)->keys_.empty()) {
      leaf_ = static_cast<const Node*>(leaf_)->next_leaf;
    }
  }
}

BPlusTree::Cursor BPlusTree::First() const {
  const Node* node = root_;
  while (!node->is_leaf) node = node->children_.front();
  Cursor c;
  c.leaf_ = node->keys_.empty() ? nullptr : node;
  c.index_ = 0;
  return c;
}

BPlusTree::Cursor BPlusTree::Seek(const Row& key) const {
  HTG_METRIC_COUNTER("btree.seeks")->Add(1);
  HTG_METRIC_COUNTER("btree.node.reads")->Add(height_);
  const Node* node = root_;
  while (!node->is_leaf) {
    // First child whose subtree may contain a key >= probe: descend at the
    // lower-bound position (separator >= probe on the probe's prefix).
    size_t lo = 0, hi = node->keys_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (ComparePrefix(key, node->keys_[mid]) <= 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    node = node->children_[lo];
  }
  // Lower bound within the leaf.
  size_t lo = 0, hi = node->keys_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (ComparePrefix(key, node->keys_[mid]) <= 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  Cursor c;
  if (lo < node->keys_.size()) {
    c.leaf_ = node;
    c.index_ = static_cast<int>(lo);
    return c;
  }
  // Past this leaf: move to the next non-empty one.
  const Node* next = node->next_leaf;
  while (next != nullptr && next->keys_.empty()) next = next->next_leaf;
  c.leaf_ = next;
  c.index_ = 0;
  return c;
}

}  // namespace htg::storage
