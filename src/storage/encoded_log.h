#ifndef DISAGG_STORAGE_ENCODED_LOG_H_
#define DISAGG_STORAGE_ENCODED_LOG_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"
#include "storage/log_record.h"

namespace disagg {

/// Redo records kept in their wire encoding, the one format every log tier
/// stores and ships ("the log is the database"), with one (lsn, offset)
/// index entry per record. Records are appended in ascending LSN order.
/// Any `n` records from index `i` go out as a wire batch without decoding:
/// a count varint and one byte range, equal to `LogRecord::EncodeBatch` of
/// those records because the encoding is canonical. Owners lock it.
class EncodedLog {
 public:
  size_t size() const { return index_.size(); }
  Lsn lsn(size_t i) const { return index_[i].lsn; }

  /// Appends a record checked on arrival (`LogRecord::SplitBatch`).
  void Append(const EncodedRecord& r) {
    index_.push_back({r.lsn, bytes_.size()});
    bytes_.append(r.bytes.data(), r.bytes.size());
  }
  /// Encodes `r` in place.
  void Append(const LogRecord& r) {
    index_.push_back({r.lsn, bytes_.size()});
    r.EncodeTo(&bytes_);
  }

  /// Index of the first record with lsn > `from`; size() if none.
  size_t FirstAfter(Lsn from) const {
    return std::upper_bound(index_.begin(), index_.end(), from,
                            [](Lsn l, const Entry& e) { return l < e.lsn; }) -
           index_.begin();
  }

  /// Appends records [i, i + n) to `dst` as a wire batch.
  void AppendBatchTo(size_t i, size_t n, std::string* dst) const {
    PutVarint64(dst, n);
    dst->append(bytes_, Offset(i), Offset(i + n) - Offset(i));
  }

  void DropPrefix(size_t n) {
    const size_t cut = Offset(n);
    bytes_.erase(0, cut);
    index_.erase(index_.begin(), index_.begin() + n);
    for (Entry& e : index_) e.offset -= cut;
  }
  void Clear() { DropPrefix(size()); }

  /// Decodes records [i, size()).
  std::vector<LogRecord> DecodeFrom(size_t i) const {
    std::string batch;
    AppendBatchTo(i, size() - i, &batch);
    auto records = LogRecord::DecodeBatch(batch);
    DISAGG_CHECK(records.ok());  // every record was checked on arrival
    return std::move(records).value();
  }

 private:
  struct Entry {
    Lsn lsn;
    size_t offset;  // where the record starts in bytes_
  };

  // Byte offset of record `i`; the end of bytes_ for i == size().
  size_t Offset(size_t i) const {
    return i == index_.size() ? bytes_.size() : index_[i].offset;
  }

  std::string bytes_;
  std::vector<Entry> index_;
};

}  // namespace disagg

#endif  // DISAGG_STORAGE_ENCODED_LOG_H_
