#ifndef DISAGG_TXN_TXN_MANAGER_H_
#define DISAGG_TXN_TXN_MANAGER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace disagg {

/// Transaction coordinator tying strict 2PL to the WAL: engines call the
/// Log* methods BEFORE applying a change to a page (write-ahead rule), and
/// Commit flushes the log to the sink — the durability point whose cost
/// varies across architectures (local fsync vs XLOG RPC vs Aurora quorum).
class TxnManager {
 public:
  TxnManager(WalManager* wal, LockBackend* locks) : wal_(wal), locks_(locks) {}

  /// Swaps the lock backend (e.g. for the memory-node offloaded lock table,
  /// `RowEngine::AdoptConcurrencyOffload`). Config-time only: call before
  /// any transaction begins.
  void set_lock_backend(LockBackend* locks) { locks_ = locks; }

  TxnId Begin();

  /// Lock helpers (no-wait: Busy means "abort and retry"; Aborted means the
  /// memory-node lock table wounded or fenced this txn — abort, don't
  /// retry the same txn id). `ctx` carries the fabric charge for offloaded
  /// backends; pass nullptr only for a local backend.
  Status LockShared(NetContext* ctx, TxnId txn, uint64_t key) {
    return locks_->AcquireLock(ctx, txn, key, LockMode::kShared);
  }
  Status LockExclusive(NetContext* ctx, TxnId txn, uint64_t key) {
    return locks_->AcquireLock(ctx, txn, key, LockMode::kExclusive);
  }

  /// WAL wrappers; each returns the stamped LSN the caller must put on the
  /// page it modifies. `row_key` is the engine-level key (0 if none).
  Lsn LogInsert(TxnId txn, PageId page, uint16_t slot, Slice after,
                uint64_t row_key = 0);
  Lsn LogUpdate(TxnId txn, PageId page, uint16_t slot, Slice before,
                Slice after, uint64_t row_key = 0);
  Lsn LogDelete(TxnId txn, PageId page, uint16_t slot, Slice before,
                uint64_t row_key = 0);

  /// Appends the commit record and flushes (group commit). Releases locks.
  Status Commit(NetContext* ctx, TxnId txn);

  /// Logs compensation records (CLRs) for the rollback plus an abort
  /// record, and returns the transaction's updates in reverse order so the
  /// engine can undo them in its buffer. Releases locks. Delete-undo CLRs
  /// are the engine's job (it knows the re-insert slot): call LogClr, then
  /// EndAbort. A rollback with no deletes ends the WAL chain here.
  std::vector<LogRecord> Abort(NetContext* ctx, TxnId txn);

  /// Ends an aborted transaction's WAL chain once the engine has logged its
  /// delete-undo CLRs. A no-op if Abort already ended it.
  void EndAbort(TxnId txn) { wal_->EndChain(txn); }

  /// Ends a transaction that logged nothing: just releases its locks. A
  /// read-only transaction has no durability point — no commit record, no
  /// flush, no quorum round-trip. The caller guarantees the transaction
  /// performed no Log* calls (any tracked undo is dropped, not rolled back).
  void EndReadOnly(NetContext* ctx, TxnId txn);

  /// Logs one CLR describing a rollback action the engine performed
  /// (empty `restored_image` = the slot was deleted again).
  Lsn LogClr(TxnId txn, PageId page, uint16_t slot, Slice restored_image,
             Lsn compensated_lsn);

  size_t active_txns() const;

  /// Stamped data records of an active transaction (oldest first) — what a
  /// page-shipping engine sends to its page stores at commit.
  std::vector<LogRecord> PendingRecords(TxnId txn) const;

 private:
  Lsn LogAndTrack(TxnId txn, LogRecord record);

  WalManager* wal_;
  LockBackend* locks_;
  std::atomic<TxnId> next_txn_{1};
  mutable std::mutex mu_;
  std::map<TxnId, std::vector<LogRecord>> undo_;  // newest last
};

}  // namespace disagg

#endif  // DISAGG_TXN_TXN_MANAGER_H_
