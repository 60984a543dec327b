#pragma once

#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace htg::storage {

// An in-memory B+-tree mapping composite SQL keys to opaque payloads
// (encoded rows). Duplicate keys are allowed (inserted after existing
// equals), which clustered Alignment tables rely on: many alignments share
// one (chromosome, position) key. Leaves are chained for ordered scans —
// the access path behind merge joins and the sliding-window consensus UDA.
class BPlusTree {
 public:
  // Fanout: max entries per node before a split.
  explicit BPlusTree(int fanout = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  // `stamp` is an opaque per-entry tag (the MVCC layer stores the
  // creating transaction id; 0 = frozen/visible-to-all).
  void Insert(Row key, std::string payload, uint64_t stamp = 0);

  uint64_t size() const { return size_; }
  // Approximate structural overhead (node bookkeeping + key storage).
  uint64_t ApproxNodeBytes() const;
  int height() const { return height_; }
  uint64_t num_nodes() const { return num_nodes_; }

  void Clear();

  // Forward cursor over (key, payload) entries.
  class Cursor {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    const Row& key() const;
    const std::string& payload() const;
    uint64_t stamp() const;
    void Advance();

   private:
    friend class BPlusTree;
    const void* leaf_ = nullptr;
    int index_ = 0;
  };

  // Cursor at the smallest key.
  Cursor First() const;

  // Cursor at the first entry whose key compares >= `key` on the key's
  // leading |key| columns (prefix seek).
  Cursor Seek(const Row& key) const;

 private:
  struct Node;

  // Compares a on min(|a|,|b|) leading columns, then shorter-is-smaller
  // only when exact is required; for prefix seeks a shorter probe matches.
  static int ComparePrefix(const Row& probe, const Row& key);

  struct SplitResult;
  SplitResult InsertInto(Node* node, Row key, std::string payload,
                         uint64_t stamp);

  Node* root_;
  int fanout_;
  uint64_t size_ = 0;
  uint64_t num_nodes_ = 1;
  int height_ = 1;
};

}  // namespace htg::storage

