#include "storage/log_store.h"

#include <algorithm>

#include "common/coding.h"

namespace disagg {

namespace {
// Modeled CPU cost of durably appending / scanning one log record on the
// storage-side CPU.
constexpr uint64_t kAppendNsPerRecord = 150;
constexpr uint64_t kScanNsPerRecord = 40;
}  // namespace

LogStoreService::LogStoreService(Fabric* fabric, NodeId node)
    : fabric_(fabric), node_(node) {
  using Handler = Status (LogStoreService::*)(Slice, std::string*,
                                              RpcServerContext*);
  static constexpr std::pair<const char*, Handler> kHandlers[] = {
      {"log.append", &LogStoreService::HandleAppend},
      {"log.read", &LogStoreService::HandleRead},
      {"log.tail", &LogStoreService::HandleTail},
      {"log.truncate", &LogStoreService::HandleTruncate}};
  for (const auto& [method, handler] : kHandlers) {
    fabric_->node(node_)->RegisterHandler(
        method, [this, h = handler](Slice req, std::string* resp,
                                    RpcServerContext* sctx) {
          return (this->*h)(req, resp, sctx);
        });
  }
}

Lsn LogStoreService::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

size_t LogStoreService::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<LogRecord> LogStoreService::SnapshotFrom(Lsn from_exclusive) const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.DecodeFrom(records_.FirstAfter(from_exclusive));
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
    records_.Append(r);
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
  const size_t first = records_.FirstAfter(from);
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(max_records, records_.size() - first));
  resp->clear();
  records_.AppendBatchTo(first, n, resp);
  sctx->ChargeCompute(kScanNsPerRecord * records_.size());
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
  sctx->ChargeCompute(kScanNsPerRecord * records_.size());
  records_.DropPrefix(records_.FirstAfter(up_to));
  resp->clear();
  return Status::OK();
}

Result<Lsn> LogStoreClient::Append(NetContext* ctx, Slice batch) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, node_, "log.append", batch, &resp));
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
  DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, node_, "log.read", req, &resp));
  return LogRecord::DecodeBatch(resp);
}

Result<Lsn> LogStoreClient::DurableLsn(NetContext* ctx) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, node_, "log.tail", "", &resp));
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
