#ifndef DISAGG_RINDEX_BTREE_LAYOUT_H_
#define DISAGG_RINDEX_BTREE_LAYOUT_H_

#include <cstddef>
#include <cstdint>

namespace disagg {

/// On-pool B+tree node image that the algorithms of `btree_ops.h` operate
/// on, whether the one-sided client (`RemoteBTree`) or the memory-node
/// executor (`MemNodeExecutor`) runs them. POD, memcpy'd wholesale; both
/// protocols touch the SAME bytes of one tree.
struct BTreeNodeImage {
  static constexpr size_t kFanout = 32;

  uint64_t version_front;
  uint32_t level;  // 0 = leaf
  uint32_t nkeys;
  uint64_t keys[kFanout];
  uint64_t vals[kFanout];  // child offsets (internal) or values (leaf)
  uint64_t next;           // right-sibling offset (leaves), 0 = none
  uint64_t version_back;
};

inline constexpr size_t kBTreeNodeBytes = sizeof(BTreeNodeImage);

/// Lock-table slot for a node offset. Slot 0 (offset 0) is the SMO lock;
/// nodes hash into the remaining `lock_slots` words. The executor's
/// region-local CAS takes exactly the lock word a one-sided client CASes
/// over the fabric — the two protocols interoperate on live trees.
inline uint64_t BTreeLockSlot(uint64_t node_offset, uint64_t lock_slots) {
  return node_offset == 0
             ? 0
             : 1 + (node_offset * 0x9E3779B97F4A7C15ull) % lock_slots;
}

}  // namespace disagg

#endif  // DISAGG_RINDEX_BTREE_LAYOUT_H_
