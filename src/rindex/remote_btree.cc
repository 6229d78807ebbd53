#include "rindex/remote_btree.h"

#include <cstddef>
#include <cstring>
#include <thread>

#include "memnode/executor.h"
#include "rindex/btree_ops.h"

namespace disagg {

Result<RemoteBTree::TreeRef> RemoteBTree::Create(NetContext* ctx,
                                                 Fabric* fabric,
                                                 MemoryNode* pool) {
  TreeRef ref;
  auto root_ptr = pool->AllocLocal(8);
  if (!root_ptr.ok()) return root_ptr.status();
  ref.root_ptr = *root_ptr;
  ref.lock_slots = 1024;
  auto locks = pool->AllocLocal((ref.lock_slots + 1) * 8);
  if (!locks.ok()) return locks.status();
  ref.lock_table = *locks;

  // Initial empty leaf.
  auto leaf_addr = pool->AllocLocal(kBTreeNodeBytes);
  if (!leaf_addr.ok()) return leaf_addr.status();
  BTreeNodeImage leaf;
  std::memset(&leaf, 0, sizeof(leaf));
  Status st = fabric->Write(ctx, *leaf_addr, &leaf, kBTreeNodeBytes);
  if (!st.ok()) return st;
  const uint64_t off = leaf_addr->offset;
  st = fabric->Write(ctx, ref.root_ptr, &off, 8);
  if (!st.ok()) return st;
  return ref;
}

RemoteBTree::RemoteBTree(Fabric* fabric, MemoryNode* pool, TreeRef tree,
                         Options options)
    : fabric_(fabric),
      pool_(pool),
      tree_(tree),
      options_(std::move(options)),
      slab_(fabric, pool->node()) {}

struct RemoteBTree::FabricAccess {
  RemoteBTree* t;
  NetContext* ctx;

  GlobalAddr NodeAddr(uint64_t offset) const {
    return GlobalAddr{t->tree_.root_ptr.node, t->tree_.root_ptr.region,
                      offset};
  }

  Result<uint64_t> ReadRoot() {
    return t->fabric_->ReadAtomic64(ctx, t->tree_.root_ptr);
  }

  /// With optimistic reads, retries torn/in-flight images.
  Status ReadNode(uint64_t offset, BTreeNodeImage* out) {
    for (int retry = 0; retry < btree::kMaxOptimisticRetries; retry++) {
      DISAGG_RETURN_NOT_OK(
          t->fabric_->Read(ctx, NodeAddr(offset), out, kBTreeNodeBytes));
      t->stats_.reads++;
      if (!t->options_.optimistic_reads) return Status::OK();
      if (out->version_front == out->version_back &&
          out->version_front % 2 == 0) {
        return Status::OK();
      }
      t->stats_.optimistic_retries++;
    }
    return Status::Busy("optimistic node read did not stabilize");
  }

  Status ReadNodeForDescent(uint64_t offset, BTreeNodeImage* out) {
    if (t->options_.optimistic_reads) return ReadNode(offset, out);
    // Lock coupling: CAS-lock, read, unlock — three round trips per level.
    DISAGG_RETURN_NOT_OK(Lock(offset));
    Status st = ReadNode(offset, out);
    DISAGG_RETURN_NOT_OK(Release(offset));
    return st;
  }

  /// Writes a node image with a bumped version, honoring the batching mode.
  Status WriteNode(uint64_t offset, BTreeNodeImage* node) {
    node->version_front += 2;
    node->version_back = node->version_front;
    t->stats_.writes++;
    const char* bytes = reinterpret_cast<const char*>(node);
    if (t->options_.batched_writes) {
      // Sherman: header, payload, and version tail ride one doorbell.
      std::vector<Fabric::WriteOp> ops = {
          {RemoteAddr{t->tree_.root_ptr.region, offset}, bytes,
           kBTreeNodeBytes}};
      return t->fabric_->WriteBatch(ctx, t->tree_.root_ptr.node, ops);
    }
    // Naive: three separate verbs (header+keys, values, tail), three RTTs.
    const size_t head = offsetof(BTreeNodeImage, vals);
    const size_t tail_off = offsetof(BTreeNodeImage, next);
    DISAGG_RETURN_NOT_OK(t->fabric_->Write(ctx, NodeAddr(offset), bytes, head));
    DISAGG_RETURN_NOT_OK(t->fabric_->Write(ctx, NodeAddr(offset + head),
                                           bytes + head, tail_off - head));
    return t->fabric_->Write(ctx, NodeAddr(offset + tail_off),
                             bytes + tail_off, kBTreeNodeBytes - tail_off);
  }

  GlobalAddr LockWord(uint64_t node_offset) const {
    GlobalAddr addr = t->tree_.lock_table;
    addr.offset += BTreeLockSlot(node_offset, t->tree_.lock_slots) * 8;
    return addr;
  }

  Status Lock(uint64_t node_offset) {
    const GlobalAddr word = LockWord(node_offset);
    for (int spin = 0; spin < btree::kMaxLockSpins; spin++) {
      DISAGG_ASSIGN_OR_RETURN(uint64_t observed,
                              t->fabric_->CompareAndSwap(ctx, word, 0, 1));
      if (observed == 0) return Status::OK();
      t->stats_.lock_waits++;
      std::this_thread::yield();
    }
    return Status::Busy("lock acquisition starved");
  }

  Status Release(uint64_t node_offset) {
    const uint64_t zero = 0;
    return t->fabric_->Write(ctx, LockWord(node_offset), &zero, 8);
  }
  void Unlock(uint64_t node_offset) { (void)Release(node_offset); }

  Result<uint64_t> AllocNode() {
    DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr,
                            t->slab_.Alloc(ctx, kBTreeNodeBytes));
    return addr.offset;
  }

  Status PublishRoot(uint64_t offset) {
    return t->fabric_->Write(ctx, t->tree_.root_ptr, &offset, 8);
  }

  void CountSplit() { t->stats_.splits++; }
};

Status RemoteBTree::Put(NetContext* ctx, uint64_t key, uint64_t value) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexPut(fabric_, ctx, offload_node_, offload_tree_, key,
                           value);
  }
  FabricAccess a{this, ctx};
  return btree::Put(a, key, value);
}

Result<uint64_t> RemoteBTree::Get(NetContext* ctx, uint64_t key) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexGet(fabric_, ctx, offload_node_, offload_tree_, key);
  }
  FabricAccess a{this, ctx};
  return btree::Get(a, key);
}

Status RemoteBTree::Delete(NetContext* ctx, uint64_t key) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexDelete(fabric_, ctx, offload_node_, offload_tree_, key);
  }
  FabricAccess a{this, ctx};
  return btree::Delete(a, key);
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> RemoteBTree::Scan(
    NetContext* ctx, uint64_t from, size_t limit) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexScan(fabric_, ctx, offload_node_, offload_tree_, from,
                            limit);
  }
  FabricAccess a{this, ctx};
  return btree::Scan(a, from, limit);
}

}  // namespace disagg
