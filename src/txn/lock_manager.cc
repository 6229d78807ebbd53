#include "txn/lock_manager.h"

namespace disagg {

Status LockManager::Acquire(TxnId txn, uint64_t key, Mode mode,
                            std::vector<TxnId>* holders) {
  std::lock_guard<std::mutex> lock(mu_);
  if (holders != nullptr) holders->clear();
  Entry& e = table_[key];
  if (e.exclusive != 0 && e.exclusive != txn) {
    if (holders != nullptr) holders->push_back(e.exclusive);
    return Status::Busy("X-lock held by another transaction");
  }
  if (mode == Mode::kShared) {
    if (e.sharers.insert(txn).second) held_[txn].push_back(key);
    return Status::OK();
  }
  if (e.exclusive == txn) return Status::OK();
  // Upgrade allowed only when we are the sole sharer.
  if (e.sharers.size() > e.sharers.count(txn)) {
    if (holders != nullptr) {
      for (TxnId sharer : e.sharers) {
        if (sharer != txn) holders->push_back(sharer);
      }
    }
    return Status::Busy("S-lock held by another txn");
  }
  const bool newly_held = e.sharers.erase(txn) == 0;
  e.exclusive = txn;
  if (newly_held) held_[txn].push_back(key);
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (uint64_t key : it->second) {
    auto te = table_.find(key);
    if (te == table_.end()) continue;
    te->second.sharers.erase(txn);
    if (te->second.exclusive == txn) te->second.exclusive = 0;
    if (te->second.sharers.empty() && te->second.exclusive == 0) {
      table_.erase(te);
    }
  }
  held_.erase(it);
}

size_t LockManager::held_locks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

}  // namespace disagg
