#include "storage/log_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace disagg {

namespace {
// Modeled CPU cost of durably appending / scanning one log record on the
// storage-side CPU.
constexpr uint64_t kAppendNsPerRecord = 150;
constexpr uint64_t kScanNsPerRecord = 40;
}  // namespace

LogStoreService::LogStoreService(Fabric* fabric, NodeId node)
    : fabric_(fabric), node_(node) {
  Node* n = fabric_->node(node_);
  n->RegisterHandler("log.append",
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleAppend(req, resp, sctx);
                     });
  n->RegisterHandler("log.read",
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleRead(req, resp, sctx);
                     });
  n->RegisterHandler("log.tail",
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleTail(req, resp, sctx);
                     });
  n->RegisterHandler("log.truncate",
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleTruncate(req, resp, sctx);
                     });
}

Lsn LogStoreService::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

size_t LogStoreService::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t LogStoreService::FirstAfterLocked(Lsn from) const {
  return std::upper_bound(index_.begin(), index_.end(), from,
                          [](Lsn lsn, const IndexEntry& e) {
                            return lsn < e.lsn;
                          }) -
         index_.begin();
}

size_t LogStoreService::OffsetLocked(size_t i) const {
  return i == index_.size() ? log_.size() : index_[i].offset;
}

std::vector<LogRecord> LogStoreService::SnapshotFrom(Lsn from_exclusive) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogRecord> out;
  const size_t first = FirstAfterLocked(from_exclusive);
  const size_t begin = OffsetLocked(first);
  Slice in(log_.data() + begin, log_.size() - begin);
  out.reserve(index_.size() - first);
  while (!in.empty()) {
    auto rec = LogRecord::DecodeFrom(&in);
    DISAGG_CHECK(rec.ok());  // validated when it arrived
    out.push_back(std::move(rec).value());
  }
  return out;
}

Status LogStoreService::HandleAppend(Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
  std::lock_guard<std::mutex> lock(mu_);
  // The whole batch is checked before anything is stored, so a malformed
  // one leaves the log as it was.
  DISAGG_RETURN_NOT_OK(LogRecord::SplitBatch(req, &batch_));
  for (const EncodedRecord& r : batch_) {
    if (r.lsn <= durable_lsn_) continue;  // idempotent re-send
    durable_lsn_ = r.lsn;
    index_.push_back({r.lsn, log_.size()});
    log_.append(r.bytes.data(), r.bytes.size());
  }
  sctx->ChargeCompute(kAppendNsPerRecord * batch_.size());
  resp->clear();
  PutVarint64(resp, durable_lsn_);
  return Status::OK();
}

Status LogStoreService::HandleRead(Slice req, std::string* resp,
                                   RpcServerContext* sctx) {
  uint64_t from = 0, max_records = 0;
  if (!GetVarint64(&req, &from) || !GetVarint64(&req, &max_records)) {
    return Status::InvalidArgument("malformed log.read");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const size_t first = FirstAfterLocked(from);
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(max_records, index_.size() - first));
  const size_t begin = OffsetLocked(first);
  resp->clear();
  PutVarint64(resp, n);
  resp->append(log_, begin, OffsetLocked(first + n) - begin);
  sctx->ChargeCompute(kScanNsPerRecord * index_.size());
  return Status::OK();
}

Status LogStoreService::HandleTail(Slice req, std::string* resp,
                                   RpcServerContext* sctx) {
  (void)req;
  std::lock_guard<std::mutex> lock(mu_);
  sctx->ChargeCompute(kScanNsPerRecord);  // one index probe, no scan
  resp->clear();
  PutVarint64(resp, durable_lsn_);
  return Status::OK();
}

Status LogStoreService::HandleTruncate(Slice req, std::string* resp,
                                       RpcServerContext* sctx) {
  uint64_t up_to = 0;
  if (!GetVarint64(&req, &up_to)) {
    return Status::InvalidArgument("malformed log.truncate");
  }
  std::lock_guard<std::mutex> lock(mu_);
  sctx->ChargeCompute(kScanNsPerRecord * index_.size());
  const size_t cut = FirstAfterLocked(up_to);
  const size_t bytes = OffsetLocked(cut);
  log_.erase(0, bytes);
  index_.erase(index_.begin(), index_.begin() + cut);
  for (IndexEntry& e : index_) e.offset -= bytes;
  resp->clear();
  return Status::OK();
}

Result<Lsn> LogStoreClient::Append(NetContext* ctx, Slice batch) {
  std::string resp;
  Status st = fabric_->Call(ctx, node_, "log.append", batch, &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t lsn = 0;
  if (!GetVarint64(&in, &lsn)) return Status::Corruption("append response");
  return lsn;
}

Result<std::vector<LogRecord>> LogStoreClient::ReadFrom(NetContext* ctx,
                                                        Lsn from_exclusive,
                                                        uint64_t max_records) {
  std::string req;
  PutVarint64(&req, from_exclusive);
  PutVarint64(&req, max_records);
  std::string resp;
  Status st = fabric_->Call(ctx, node_, "log.read", req, &resp);
  if (!st.ok()) return st;
  return LogRecord::DecodeBatch(resp);
}

Result<Lsn> LogStoreClient::DurableLsn(NetContext* ctx) {
  std::string resp;
  Status st = fabric_->Call(ctx, node_, "log.tail", "", &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t lsn = 0;
  if (!GetVarint64(&in, &lsn)) return Status::Corruption("tail response");
  return lsn;
}

Status LogStoreClient::Truncate(NetContext* ctx, Lsn up_to_inclusive) {
  std::string req;
  PutVarint64(&req, up_to_inclusive);
  std::string resp;
  return fabric_->Call(ctx, node_, "log.truncate", req, &resp);
}

}  // namespace disagg
