#include "txn/wal.h"

namespace disagg {

Result<Lsn> LocalDiskSink::Append(NetContext* ctx,
                                  const std::vector<LogRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const LogRecord& r : records) {
    bytes += r.EncodedSize();
    durable_ = std::max(durable_, r.lsn);
    records_.push_back(r);
  }
  // One fsync'ed sequential write.
  ctx->Charge(model_.WriteCost(bytes));
  ctx->bytes_out += bytes;
  return durable_;
}

Result<std::vector<LogRecord>> LocalDiskSink::ReadAll(NetContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const LogRecord& r : records_) bytes += r.EncodedSize();
  ctx->Charge(model_.ReadCost(bytes));
  ctx->bytes_in += bytes;
  return records_;
}

Lsn WalManager::Append(LogRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  record->lsn = next_lsn_++;
  auto it = last_lsn_.find(record->txn_id);
  record->prev_lsn = it == last_lsn_.end() ? kInvalidLsn : it->second;
  last_lsn_[record->txn_id] = record->lsn;
  buffer_.push_back(*record);
  return record->lsn;
}

Status WalManager::Flush(NetContext* ctx) {
  std::vector<LogRecord> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.empty()) return Status::OK();
    batch.swap(buffer_);
  }
  auto lsn = sink_->Append(ctx, batch);
  if (!lsn.ok()) {
    // Put the batch back so a retry does not lose records.
    std::lock_guard<std::mutex> lock(mu_);
    buffer_.insert(buffer_.begin(), batch.begin(), batch.end());
    return lsn.status();
  }
  std::lock_guard<std::mutex> lock(mu_);
  flushed_lsn_ = std::max(flushed_lsn_, *lsn);
  return Status::OK();
}

Lsn WalManager::LastLsnOf(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = last_lsn_.find(txn);
  return it == last_lsn_.end() ? kInvalidLsn : it->second;
}

void WalManager::EndChain(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  last_lsn_.erase(txn);
}

size_t WalManager::open_chains() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_.size();
}

}  // namespace disagg
