#include "storage/log_record.h"

#include <algorithm>

#include "common/coding.h"

namespace disagg {

size_t LogRecord::EncodedSize() const {
  return VarintLength(lsn) + VarintLength(prev_lsn) + VarintLength(txn_id) +
         1 + VarintLength(page_id) + VarintLength(slot) +
         VarintLength(row_key) + VarintLength(compensates_lsn) +
         VarintLength(payload.size()) + payload.size() +
         VarintLength(undo_payload.size()) + undo_payload.size();
}

void LogRecord::EncodeTo(std::string* dst) const {
  PutVarint64(dst, lsn);
  PutVarint64(dst, prev_lsn);
  PutVarint64(dst, txn_id);
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, page_id);
  PutVarint64(dst, slot);
  PutVarint64(dst, row_key);
  PutVarint64(dst, compensates_lsn);
  PutLengthPrefixedSlice(dst, payload);
  PutLengthPrefixedSlice(dst, undo_payload);
}

namespace {

// Parses every field except the two row images, which are returned as
// slices into `input`.
Status DecodeFields(Slice* input, LogRecord* rec, Slice* payload,
                    Slice* undo) {
  uint64_t tmp = 0;
  if (!GetVarint64(input, &rec->lsn)) return Status::Corruption("lsn");
  if (!GetVarint64(input, &rec->prev_lsn)) return Status::Corruption("prev");
  if (!GetVarint64(input, &rec->txn_id)) return Status::Corruption("txn");
  if (input->empty()) return Status::Corruption("type");
  rec->type = static_cast<LogType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &rec->page_id)) return Status::Corruption("page");
  if (!GetVarint64(input, &tmp)) return Status::Corruption("slot");
  rec->slot = static_cast<uint16_t>(tmp);
  if (!GetVarint64(input, &rec->row_key)) {
    return Status::Corruption("row_key");
  }
  if (!GetVarint64(input, &rec->compensates_lsn)) {
    return Status::Corruption("compensates_lsn");
  }
  if (!GetLengthPrefixedSlice(input, payload)) {
    return Status::Corruption("payload");
  }
  if (!GetLengthPrefixedSlice(input, undo)) return Status::Corruption("undo");
  return Status::OK();
}

// Trusting a batch's count for a reservation would let a malformed batch ask
// for an arbitrary allocation; every record takes at least one byte, so the
// remaining input bounds the useful reservation.
size_t ReserveFor(uint64_t n, Slice rest) {
  return static_cast<size_t>(std::min<uint64_t>(n, rest.size()));
}

}  // namespace

Result<LogRecord> LogRecord::DecodeFrom(Slice* input) {
  LogRecord rec;
  Slice payload, undo;
  DISAGG_RETURN_NOT_OK(DecodeFields(input, &rec, &payload, &undo));
  rec.payload = payload.ToString();
  rec.undo_payload = undo.ToString();
  return rec;
}

Result<EncodedRecord> LogRecord::ParseFrom(Slice* input) {
  const char* begin = input->data();
  LogRecord rec;
  Slice payload, undo;
  DISAGG_RETURN_NOT_OK(DecodeFields(input, &rec, &payload, &undo));
  EncodedRecord out;
  out.lsn = rec.lsn;
  out.page_id = rec.page_id;
  out.bytes = Slice(begin, static_cast<size_t>(input->data() - begin));
  return out;
}

std::string LogRecord::EncodeBatch(const std::vector<LogRecord>& records) {
  std::string out;
  PutVarint64(&out, records.size());
  for (const LogRecord& r : records) r.EncodeTo(&out);
  return out;
}

Result<std::vector<LogRecord>> LogRecord::DecodeBatch(Slice input) {
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("batch count");
  std::vector<LogRecord> out;
  out.reserve(ReserveFor(n, input));
  for (uint64_t i = 0; i < n; i++) {
    auto rec = DecodeFrom(&input);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(rec).value());
  }
  return out;
}

Status LogRecord::SplitBatch(Slice input, std::vector<EncodedRecord>* out) {
  out->clear();
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("batch count");
  out->reserve(ReserveFor(n, input));
  for (uint64_t i = 0; i < n; i++) {
    auto rec = ParseFrom(&input);
    if (!rec.ok()) return rec.status();
    out->push_back(*rec);
  }
  return Status::OK();
}

Status ApplyRedo(Page* page, const LogRecord& record) {
  if (record.lsn <= page->lsn()) return Status::OK();  // already applied
  switch (record.type) {
    case LogType::kInsert: {
      auto slot = page->Insert(record.payload);
      if (!slot.ok()) return slot.status();
      if (*slot != record.slot) {
        return Status::Corruption("redo insert landed in unexpected slot");
      }
      break;
    }
    case LogType::kUpdate:
      DISAGG_RETURN_NOT_OK(page->Update(record.slot, record.payload));
      break;
    case LogType::kDelete:
      DISAGG_RETURN_NOT_OK(page->Delete(record.slot));
      break;
    case LogType::kClr: {
      // A CLR redoes an undo action: empty payload = the slot was deleted
      // again; otherwise the payload is the restored image (an in-place
      // restore, or a re-insert when it targets a fresh slot). Tolerant of
      // already-compensated state so re-replay stays idempotent.
      if (record.payload.empty()) {
        Status st = page->Delete(record.slot);
        if (!st.ok() && !st.IsNotFound()) return st;
      } else if (record.slot >= page->slot_count()) {
        auto slot = page->Insert(record.payload);
        if (!slot.ok()) return slot.status();
        if (*slot != record.slot) {
          return Status::Corruption("CLR re-insert landed in wrong slot");
        }
      } else {
        Status st = page->Update(record.slot, record.payload);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      break;
    }
    case LogType::kTxnBegin:
    case LogType::kTxnCommit:
    case LogType::kTxnAbort:
    case LogType::kCheckpoint:
      return Status::OK();  // no page effect
  }
  page->set_lsn(record.lsn);
  return Status::OK();
}

}  // namespace disagg
