#pragma once

// Table-level read/write intent locks: the concurrency layer that lets
// concurrent loaders and analysis queries interleave instead of
// serializing behind one engine mutex. Sessions acquire every lock a
// statement needs up front (reads shared, writes exclusive) in one
// canonical sorted order, hold them for the statement, and release on
// RAII destruction — two-phase locking at statement granularity, which
// composes with the engine's transaction undo: a failed statement's
// implicit transaction aborts before the exclusive lock drops, so readers
// never observe a partial load.
//
// Waits are bounded: a conflict that outlives the timeout returns a typed
// kAborted Status ("lock timeout ...") that crosses the wire to the
// client; nothing inside the manager can deadlock (a single internal
// mutex guards the whole table, and multi-table acquisition happens in
// sorted order under a bounded wait). Lock waits feed the
// server.lock.wait_ns histogram and server.lock.timeouts counter.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/synchronization.h"

namespace htg::server {

class LockManager;

// The set of tables one statement holds locked. Releases on destruction.
class LockSet {
 public:
  LockSet() = default;
  ~LockSet() { Release(); }

  LockSet(LockSet&& other) noexcept
      : manager_(other.manager_),
        reads_(std::move(other.reads_)),
        writes_(std::move(other.writes_)) {
    other.manager_ = nullptr;
  }
  LockSet& operator=(LockSet&& other) noexcept {
    if (this != &other) {
      Release();
      manager_ = other.manager_;
      reads_ = std::move(other.reads_);
      writes_ = std::move(other.writes_);
      other.manager_ = nullptr;
    }
    return *this;
  }
  LockSet(const LockSet&) = delete;
  LockSet& operator=(const LockSet&) = delete;

  void Release();
  // Nanoseconds this statement spent blocked acquiring its locks.
  uint64_t wait_ns() const { return wait_ns_; }

 private:
  friend class LockManager;
  LockManager* manager_ = nullptr;
  std::vector<std::string> reads_;
  std::vector<std::string> writes_;
  uint64_t wait_ns_ = 0;
};

class LockManager {
 public:
  // Default bounded wait; HTG_LOCK_TIMEOUT_MS overrides at server start.
  static constexpr int64_t kDefaultTimeoutMs = 5000;

  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires shared locks on `reads` and exclusive locks on `writes`
  // (a table in both sets is locked exclusively), waiting up to
  // `timeout_ms` in total. On timeout every lock already taken is
  // released and a kAborted "lock timeout" Status is returned, so the
  // statement fails typed and the session keeps serving.
  Result<LockSet> Acquire(std::vector<std::string> reads,
                          std::vector<std::string> writes,
                          int64_t timeout_ms = kDefaultTimeoutMs);

  // Tables currently locked (either mode); for tests and diagnostics.
  size_t LockedTableCount() const;

 private:
  friend class LockSet;

  struct TableLock {
    int readers = 0;
    bool writer = false;
    // Writers announce themselves so a stream of readers cannot starve a
    // loader: new readers queue behind a waiting writer.
    int waiting_writers = 0;
  };

  bool TryAcquireLocked(const std::string& table, bool exclusive)
      HTG_REQUIRES(mu_);
  void ReleaseSet(const std::vector<std::string>& reads,
                  const std::vector<std::string>& writes);

  mutable Mutex mu_{"LockManager::mu_"};
  CondVar released_;
  std::map<std::string, TableLock> tables_ HTG_GUARDED_BY(mu_);
};

}  // namespace htg::server
