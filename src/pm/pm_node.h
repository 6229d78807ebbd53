#ifndef DISAGG_PM_PM_NODE_H_
#define DISAGG_PM_PM_NODE_H_

#include <mutex>
#include <string>
#include <vector>

#include "memnode/memory_node.h"
#include "net/fabric.h"

namespace disagg {

/// A disaggregated persistent-memory node (Sec. 2.3). Two properties set it
/// apart from a DRAM pool and drive the experiments:
///
/// 1. *Volatile landing buffers*: a one-sided RDMA WRITE completes once the
///    data reaches the remote NIC/PCIe buffers, which are NOT persistent
///    (Kalia et al.). Un-flushed writes are lost on power failure. A
///    subsequent RDMA READ flushes the pipeline ("flush-read"); a two-sided
///    RPC lets the server persist explicitly and needs only one round trip,
///    which is why Kalia et al. found the two-sided approach faster.
/// 2. *Low write bandwidth*: PM media writes are several times slower than
///    DRAM (PilotDB's core challenge), modeled as extra per-byte charges.
class PmNode {
 public:
  /// Media cost model (Optane-like): reads near-DRAM, writes ~1.5 GB/s.
  static constexpr double kMediaReadNsPerByte = 0.10;
  static constexpr double kMediaWriteNsPerByte = 0.65;
  /// Exadata's observation: the local kernel I/O stack costs ~10 us of
  /// software overhead per access, dwarfing the media and even the RDMA
  /// round trip — which is why REMOTE PM access can beat LOCAL PM access.
  static constexpr uint64_t kLocalIoStackOverheadNs = 10'000;

  PmNode(Fabric* fabric, const std::string& name, size_t capacity_bytes);

  NodeId node() const { return pool_.node(); }
  uint32_t region() const { return pool_.region(); }
  MemoryNode* pool() { return &pool_; }

  Result<GlobalAddr> AllocLocal(size_t bytes) {
    return pool_.AllocLocal(bytes);
  }

  /// Power-failure injection: discards every write that was not made durable
  /// by a flush or an RPC persist, restoring the previous durable bytes.
  void Crash();

  /// Number of writes currently sitting in volatile buffers.
  size_t staged_writes() const;

  // Internal: called by PmClient / the persist RPC handler. StageWrite
  // records the bytes a one-sided write to `addr` is about to overwrite; it
  // stages nothing for a range outside this node's regions.
  void StageWrite(GlobalAddr addr, size_t len);
  void MakeAllDurable();

 private:
  struct Staged {
    uint32_t region;
    uint64_t offset;
    std::vector<char> old_bytes;
  };

  Status HandlePersistWrite(Slice req, std::string* resp,
                            RpcServerContext* sctx);

  Fabric* fabric_;
  MemoryNode pool_;
  mutable std::mutex mu_;
  std::vector<Staged> staging_;
};

/// Compute-side access paths to a PmNode, one per persistence discipline.
class PmClient {
 public:
  PmClient(Fabric* fabric, PmNode* pm) : fabric_(fabric), pm_(pm) {}

  /// One-sided WRITE only: fastest, but NOT durable until a flush. Data is
  /// visible remotely yet lost if the node crashes first.
  Status WriteUnsafe(NetContext* ctx, GlobalAddr addr, Slice data);

  /// Issues the flush-read that forces prior writes through the NIC/PCIe
  /// pipeline into persistence (one extra round trip).
  Status FlushRead(NetContext* ctx, GlobalAddr addr);

  /// Convenience: WriteUnsafe + FlushRead (the "one-sided persist" path).
  Status WritePersistOneSided(NetContext* ctx, GlobalAddr addr, Slice data);

  /// Two-sided persist: a single RPC; the server-side CPU stores and
  /// persists (ntstore+fence). One round trip total. Only the PM pool
  /// region is addressable this way: any other `addr` is InvalidArgument.
  Status WritePersistRpc(NetContext* ctx, GlobalAddr addr, Slice data);

  /// Remote PM read over RDMA (Exadata's fast path).
  Status ReadRemote(NetContext* ctx, GlobalAddr addr, void* dst, size_t n);

  /// PM read through a local kernel I/O stack (Exadata's slow path): charges
  /// the software overhead instead of a network round trip.
  Status ReadLocalViaIoStack(NetContext* ctx, GlobalAddr addr, void* dst,
                             size_t n);

 private:
  Fabric* fabric_;
  PmNode* pm_;
};

}  // namespace disagg

#endif  // DISAGG_PM_PM_NODE_H_
