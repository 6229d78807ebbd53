#ifndef DISAGG_STORAGE_LOG_RECORD_H_
#define DISAGG_STORAGE_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/page.h"

namespace disagg {

using TxnId = uint64_t;

/// Kind of redo/undo record. The physical kinds carry enough state to both
/// redo (after-image) and undo (before-image) a slot operation, which is what
/// ARIES-style recovery and log-as-the-database materialization need.
enum class LogType : uint8_t {
  kInsert = 1,   // payload = after-image; applied as page insert
  kUpdate = 2,   // payload = after-image, undo_payload = before-image
  kDelete = 3,   // undo_payload = before-image
  kTxnBegin = 4,
  kTxnCommit = 5,
  kTxnAbort = 6,
  kCheckpoint = 7,  // payload = serialized checkpoint metadata
  kClr = 8,         // compensation record written during undo
};

/// One record still in its wire encoding: the fields replicas index by, and
/// the whole encoded record, pointing into the buffer it was parsed from.
struct EncodedRecord {
  Lsn lsn = kInvalidLsn;
  PageId page_id = kInvalidPageId;
  Slice bytes;
};

/// A single write-ahead-log record. This is the unit Aurora ships over the
/// network instead of pages ("the log is the database") and the unit PilotDB
/// writes to the PM tier with one-sided RDMA.
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn = kInvalidLsn;  // previous record of the same transaction
  TxnId txn_id = 0;
  LogType type = LogType::kInsert;
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;
  /// Engine-level row key the record concerns (0 when inapplicable); lets
  /// the compute node maintain its key index during rollback/recovery.
  uint64_t row_key = 0;
  /// For CLRs: the LSN of the record this CLR compensates (ARIES's
  /// undoNextLSN role) — recovery skips re-undoing compensated records.
  Lsn compensates_lsn = kInvalidLsn;
  std::string payload;       // after-image (redo)
  std::string undo_payload;  // before-image (undo)

  /// Serialized length in bytes (what gets charged to the network).
  size_t EncodedSize() const;
  void EncodeTo(std::string* dst) const;
  static Result<LogRecord> DecodeFrom(Slice* input);

  /// Checks the record at the front of `input` as DecodeFrom does and
  /// advances past it, without copying its row images.
  static Result<EncodedRecord> ParseFrom(Slice* input);

  /// Encodes a batch of records into one buffer (group shipping): a varint
  /// record count followed by that many encoded records.
  static std::string EncodeBatch(const std::vector<LogRecord>& records);
  static Result<std::vector<LogRecord>> DecodeBatch(Slice input);
  /// Splits an encoded batch into its records without decoding them.
  /// Rejects exactly the batches DecodeBatch rejects.
  static Status SplitBatch(Slice input, std::vector<EncodedRecord>* out);
};

/// Applies a redo record to a page. Idempotent: records at or below the
/// page's LSN are skipped, so replaying a log prefix any number of times
/// converges to the same page image (tested as a property).
Status ApplyRedo(Page* page, const LogRecord& record);

}  // namespace disagg

#endif  // DISAGG_STORAGE_LOG_RECORD_H_
