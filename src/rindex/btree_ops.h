#ifndef DISAGG_RINDEX_BTREE_OPS_H_
#define DISAGG_RINDEX_BTREE_OPS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rindex/btree_layout.h"

namespace disagg {

/// The B+tree algorithms of Sec. 3.1, written once. A one-sided client
/// (`RemoteBTree`) and the memory-node executor (`MemNodeExecutor`) differ
/// only in HOW they touch the node bytes, so each supplies an access policy
/// `A` and calls these templates:
///
///   Result<uint64_t> ReadRoot();                       // root node offset
///   Status ReadNode(uint64_t off, BTreeNodeImage*);    // validated image
///   Status ReadNodeForDescent(uint64_t off, BTreeNodeImage*);
///   Status WriteNode(uint64_t off, BTreeNodeImage*);   // bumps the version
///   Status Lock(uint64_t node_off);                    // 0 = the SMO lock
///   void Unlock(uint64_t node_off);
///   Result<uint64_t> AllocNode();
///   Status PublishRoot(uint64_t off);
///   void CountSplit();
///
/// Header-only so the one-sided hot path inlines its policy: no indirect
/// call per verb. Structure modifications (splits, root growth) serialize
/// on the SMO lock; leaves may run underfull after deletes, as in Sherman.
namespace btree {

/// Bounds shared by every policy, so the two protocols converge or starve
/// under the same conditions.
inline constexpr int kMaxOptimisticRetries = 64;
inline constexpr int kMaxLockSpins = 100000;

using KeyValues = std::vector<std::pair<uint64_t, uint64_t>>;

/// Sorted insert of (key, value) into a node with room.
inline void InsertSorted(BTreeNodeImage* n, uint64_t key, uint64_t value) {
  uint32_t pos = 0;
  while (pos < n->nkeys && n->keys[pos] < key) pos++;
  for (uint32_t i = n->nkeys; i > pos; i--) {
    n->keys[i] = n->keys[i - 1];
    n->vals[i] = n->vals[i - 1];
  }
  n->keys[pos] = key;
  n->vals[pos] = value;
  n->nkeys++;
}

/// Updates `key` in place or inserts it into free room; false when the leaf
/// is full and lacks the key (the caller must split).
inline bool UpsertInLeaf(BTreeNodeImage* leaf, uint64_t key, uint64_t value) {
  for (uint32_t i = 0; i < leaf->nkeys; i++) {
    if (leaf->keys[i] == key) {
      leaf->vals[i] = value;
      return true;
    }
  }
  if (leaf->nkeys >= BTreeNodeImage::kFanout) return false;
  InsertSorted(leaf, key, value);
  return true;
}

/// Moves the upper half of the full node `n` into the fresh image `right`,
/// at the same level. Sibling links are the caller's business.
inline void SplitInto(BTreeNodeImage* n, BTreeNodeImage* right) {
  constexpr uint32_t kHalf = BTreeNodeImage::kFanout / 2;
  std::memset(right, 0, sizeof(*right));
  right->level = n->level;
  right->nkeys = BTreeNodeImage::kFanout - kHalf;
  std::memcpy(right->keys, n->keys + kHalf, right->nkeys * 8);
  std::memcpy(right->vals, n->vals + kHalf, right->nkeys * 8);
  n->nkeys = kHalf;
}

/// Descends to the leaf that owns `key`, appending the path (offsets) when
/// `path` is non-null; a B-link step follows a leaf that a concurrent split
/// has moved the key out of.
template <typename A>
Status Descend(A& a, uint64_t key, std::vector<uint64_t>* path,
               BTreeNodeImage* leaf) {
  DISAGG_ASSIGN_OR_RETURN(uint64_t offset, a.ReadRoot());
  BTreeNodeImage& node = *leaf;
  while (true) {
    DISAGG_RETURN_NOT_OK(a.ReadNodeForDescent(offset, &node));
    if (path != nullptr) path->push_back(offset);
    if (node.level == 0) {
      while (node.nkeys > 0 && key > node.keys[node.nkeys - 1] &&
             node.next != 0) {
        offset = node.next;
        if (path != nullptr) path->back() = offset;
        DISAGG_RETURN_NOT_OK(a.ReadNode(offset, &node));
      }
      return Status::OK();
    }
    // Internal: route to the last child whose separator <= key.
    uint32_t idx = 0;
    while (idx + 1 < node.nkeys && node.keys[idx + 1] <= key) idx++;
    offset = node.vals[idx];
  }
}

template <typename A>
Result<uint64_t> Get(A& a, uint64_t key) {
  BTreeNodeImage leaf;
  DISAGG_RETURN_NOT_OK(Descend(a, key, nullptr, &leaf));
  for (uint32_t i = 0; i < leaf.nkeys; i++) {
    if (leaf.keys[i] == key) return leaf.vals[i];
  }
  return Status::NotFound("key not in tree");
}

/// Split path: under the SMO lock and the leaf's lock, splits the leaf and
/// propagates separators up the path, growing a new root if it splits too.
/// Only splitters write internal nodes.
template <typename A>
Status InsertWithSplit(A& a, uint64_t key, uint64_t value) {
  DISAGG_RETURN_NOT_OK(a.Lock(0));
  Status st = [&]() -> Status {
    std::vector<uint64_t> path;
    BTreeNodeImage leaf;
    DISAGG_RETURN_NOT_OK(Descend(a, key, &path, &leaf));
    const uint64_t leaf_off = path.back();
    DISAGG_RETURN_NOT_OK(a.Lock(leaf_off));
    Status inner = [&]() -> Status {
      DISAGG_RETURN_NOT_OK(a.ReadNode(leaf_off, &leaf));
      // Room may have appeared (or the key may exist) after a racing op.
      if (UpsertInLeaf(&leaf, key, value)) return a.WriteNode(leaf_off, &leaf);

      a.CountSplit();
      DISAGG_ASSIGN_OR_RETURN(uint64_t right_off, a.AllocNode());
      BTreeNodeImage right;
      SplitInto(&leaf, &right);
      right.next = leaf.next;
      leaf.next = right_off;
      InsertSorted(key >= right.keys[0] ? &right : &leaf, key, value);
      // Publish right first, then the shrunk left (B-link ordering).
      DISAGG_RETURN_NOT_OK(a.WriteNode(right_off, &right));
      DISAGG_RETURN_NOT_OK(a.WriteNode(leaf_off, &leaf));

      uint64_t sep = right.keys[0];
      uint64_t child = right_off;
      for (size_t depth = path.size(); depth-- > 1;) {
        const uint64_t parent_off = path[depth - 1];
        BTreeNodeImage parent;
        DISAGG_RETURN_NOT_OK(a.ReadNode(parent_off, &parent));
        if (parent.nkeys < BTreeNodeImage::kFanout) {
          InsertSorted(&parent, sep, child);
          return a.WriteNode(parent_off, &parent);
        }
        a.CountSplit();
        DISAGG_ASSIGN_OR_RETURN(uint64_t iright_off, a.AllocNode());
        BTreeNodeImage iright;
        SplitInto(&parent, &iright);
        InsertSorted(sep >= iright.keys[0] ? &iright : &parent, sep, child);
        DISAGG_RETURN_NOT_OK(a.WriteNode(iright_off, &iright));
        DISAGG_RETURN_NOT_OK(a.WriteNode(parent_off, &parent));
        sep = iright.keys[0];
        child = iright_off;
      }

      // The root itself split: grow the tree.
      DISAGG_ASSIGN_OR_RETURN(uint64_t new_root_off, a.AllocNode());
      BTreeNodeImage new_root;
      std::memset(&new_root, 0, sizeof(new_root));
      BTreeNodeImage old_root;
      DISAGG_RETURN_NOT_OK(a.ReadNode(path[0], &old_root));
      new_root.level = old_root.level + 1;
      new_root.nkeys = 2;
      new_root.keys[0] = 0;  // leftmost separator: minus infinity
      new_root.vals[0] = path[0];
      new_root.keys[1] = sep;
      new_root.vals[1] = child;
      DISAGG_RETURN_NOT_OK(a.WriteNode(new_root_off, &new_root));
      return a.PublishRoot(new_root_off);
    }();
    a.Unlock(leaf_off);
    return inner;
  }();
  a.Unlock(0);
  return st;
}

template <typename A>
Status Put(A& a, uint64_t key, uint64_t value) {
  std::vector<uint64_t> path;
  BTreeNodeImage leaf;
  DISAGG_RETURN_NOT_OK(Descend(a, key, &path, &leaf));
  const uint64_t leaf_off = path.back();
  DISAGG_RETURN_NOT_OK(a.Lock(leaf_off));
  // Re-read under the lock (the image may have changed since the descent).
  Status st = a.ReadNode(leaf_off, &leaf);
  const bool fits = st.ok() && UpsertInLeaf(&leaf, key, value);
  if (fits) st = a.WriteNode(leaf_off, &leaf);
  a.Unlock(leaf_off);
  if (!st.ok() || fits) return st;
  return InsertWithSplit(a, key, value);
}

template <typename A>
Status Delete(A& a, uint64_t key) {
  std::vector<uint64_t> path;
  BTreeNodeImage leaf;
  DISAGG_RETURN_NOT_OK(Descend(a, key, &path, &leaf));
  const uint64_t leaf_off = path.back();
  DISAGG_RETURN_NOT_OK(a.Lock(leaf_off));
  Status st = [&]() -> Status {
    DISAGG_RETURN_NOT_OK(a.ReadNode(leaf_off, &leaf));
    for (uint32_t i = 0; i < leaf.nkeys; i++) {
      if (leaf.keys[i] != key) continue;
      for (uint32_t j = i; j + 1 < leaf.nkeys; j++) {
        leaf.keys[j] = leaf.keys[j + 1];
        leaf.vals[j] = leaf.vals[j + 1];
      }
      leaf.nkeys--;  // no merging
      return a.WriteNode(leaf_off, &leaf);
    }
    return Status::NotFound("key not in tree");
  }();
  a.Unlock(leaf_off);
  return st;
}

/// Ascending scan of up to `limit` pairs with key >= `from`.
template <typename A>
Result<KeyValues> Scan(A& a, uint64_t from, size_t limit) {
  KeyValues out;
  BTreeNodeImage leaf;
  DISAGG_RETURN_NOT_OK(Descend(a, from, nullptr, &leaf));
  while (out.size() < limit) {
    for (uint32_t i = 0; i < leaf.nkeys && out.size() < limit; i++) {
      if (leaf.keys[i] >= from) out.emplace_back(leaf.keys[i], leaf.vals[i]);
    }
    if (leaf.next == 0 || out.size() >= limit) break;
    DISAGG_RETURN_NOT_OK(a.ReadNode(leaf.next, &leaf));
  }
  return out;
}

}  // namespace btree
}  // namespace disagg

#endif  // DISAGG_RINDEX_BTREE_OPS_H_
