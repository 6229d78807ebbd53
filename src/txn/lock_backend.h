#ifndef DISAGG_TXN_LOCK_BACKEND_H_
#define DISAGG_TXN_LOCK_BACKEND_H_

#include <cstdint>

#include "common/status.h"
#include "storage/log_record.h"

namespace disagg {

struct NetContext;

enum class LockMode { kShared, kExclusive };

/// Where a transaction's row locks live. Two implementations:
///
///  - `LockManager` (src/txn/lock_manager.h): the compute-local no-wait
///    table every engine used before the offload seam — `ctx` is ignored,
///    acquisition costs nothing on the fabric.
///  - `OffloadedLockClient` (src/memnode/executor.h): each acquire/release
///    is one RPC to the memory-node executor, which keeps the locks in a
///    `LockManager` of its own and adds WOUND_WAIT, charged against the
///    weak-CPU model and the full fabric pipeline.
///
/// Status contract (src/net/verb.h): conflict paths return `Busy`
/// (abort-and-retry), a wound or a post-crash epoch fence returns
/// `Aborted` (the txn must abort; retrying the same txn id cannot
/// succeed), and fabric faults surface as `Unavailable`. `TimedOut` is
/// reserved for deadline expiry and never signals contention.
class LockBackend {
 public:
  virtual ~LockBackend() = default;

  virtual Status AcquireLock(NetContext* ctx, TxnId txn, uint64_t key,
                             LockMode mode) = 0;

  /// Releases everything `txn` holds (commit/abort). Best-effort for remote
  /// backends: a failed release is queued and piggybacked on the next
  /// request so no key stays wedged behind a dead client.
  virtual void ReleaseAllLocks(NetContext* ctx, TxnId txn) = 0;
};

}  // namespace disagg

#endif  // DISAGG_TXN_LOCK_BACKEND_H_
