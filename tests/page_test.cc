#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "storage/log_record.h"
#include "storage/page.h"

namespace disagg {
namespace {

TEST(PageTest, InsertAndGet) {
  Page page(42);
  EXPECT_EQ(page.page_id(), 42u);
  auto s0 = page.Insert("alpha");
  auto s1 = page.Insert("bravo");
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s0, 0);
  EXPECT_EQ(*s1, 1);
  EXPECT_EQ(page.Get(0)->ToString(), "alpha");
  EXPECT_EQ(page.Get(1)->ToString(), "bravo");
  EXPECT_EQ(page.slot_count(), 2);
}

TEST(PageTest, GetOutOfRangeIsNotFound) {
  Page page(1);
  EXPECT_TRUE(page.Get(0).status().IsNotFound());
}

TEST(PageTest, UpdateInPlace) {
  Page page(1);
  auto slot = page.Insert("hello world");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page.Update(*slot, "HELLO WORLD").ok());
  EXPECT_EQ(page.Get(*slot)->ToString(), "HELLO WORLD");
  // Shrinking updates are fine; growing ones are rejected.
  ASSERT_TRUE(page.Update(*slot, "tiny").ok());
  EXPECT_EQ(page.Get(*slot)->ToString(), "tiny");
  EXPECT_TRUE(page.Update(*slot, "way too long now").IsInvalidArgument());
}

TEST(PageTest, DeleteTombstones) {
  Page page(1);
  auto s0 = page.Insert("a");
  auto s1 = page.Insert("b");
  ASSERT_TRUE(s0.ok() && s1.ok());
  ASSERT_TRUE(page.Delete(*s0).ok());
  EXPECT_TRUE(page.Get(*s0).status().IsNotFound());
  EXPECT_EQ(page.Get(*s1)->ToString(), "b");  // slot numbers stable
  EXPECT_TRUE(page.Delete(*s0).IsNotFound());  // double delete
}

TEST(PageTest, FillsUntilBusy) {
  Page page(1);
  const std::string record(100, 'x');
  int inserted = 0;
  while (true) {
    auto s = page.Insert(record);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsBusy());
      break;
    }
    inserted++;
  }
  // 8 KB page, 100-byte records + 4-byte slots: expect roughly 78 inserts.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_LT(page.FreeSpace(), record.size());
}

TEST(PageTest, ChecksumRoundTripAndCorruptionDetection) {
  Page page(9);
  ASSERT_TRUE(page.Insert("payload").ok());
  page.Seal();
  EXPECT_TRUE(page.VerifyChecksum());
  auto restored = Page::FromBytes(Slice(page.data(), kPageSize));
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->VerifyChecksum());
  restored->data()[kPageSize - 1] ^= 0x5A;
  EXPECT_FALSE(restored->VerifyChecksum());
}

TEST(PageTest, FromBytesRejectsWrongSize) {
  EXPECT_TRUE(Page::FromBytes("short").status().IsInvalidArgument());
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.lsn = 77;
  rec.prev_lsn = 42;
  rec.txn_id = 5;
  rec.type = LogType::kUpdate;
  rec.page_id = 1234;
  rec.slot = 3;
  rec.payload = "after";
  rec.undo_payload = "before";
  std::string buf;
  rec.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), rec.EncodedSize());
  Slice in(buf);
  auto decoded = LogRecord::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 77u);
  EXPECT_EQ(decoded->prev_lsn, 42u);
  EXPECT_EQ(decoded->txn_id, 5u);
  EXPECT_EQ(decoded->type, LogType::kUpdate);
  EXPECT_EQ(decoded->page_id, 1234u);
  EXPECT_EQ(decoded->slot, 3);
  EXPECT_EQ(decoded->payload, "after");
  EXPECT_EQ(decoded->undo_payload, "before");
}

TEST(LogRecordTest, BatchRoundTrip) {
  std::vector<LogRecord> batch;
  for (uint64_t i = 1; i <= 5; i++) {
    LogRecord r;
    r.lsn = i;
    r.type = LogType::kInsert;
    r.page_id = i * 10;
    r.payload = "rec" + std::to_string(i);
    batch.push_back(r);
  }
  auto decoded = LogRecord::DecodeBatch(LogRecord::EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 5u);
  EXPECT_EQ((*decoded)[4].payload, "rec5");
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  Slice garbage("\x01\x02", 2);
  EXPECT_FALSE(LogRecord::DecodeFrom(&garbage).ok());
}

// A field value whose varint takes 1..10 bytes; width 10 is the maximum
// (values with the top bit set).
uint64_t VarintOfWidth(Random* rng, int width) {
  if (width >= 10) return (1ull << 63) | rng->Next();
  const uint64_t lo = width == 1 ? 0 : 1ull << (7 * (width - 1));
  const uint64_t hi = (1ull << (7 * width)) - 1;
  return rng->UniformRange(lo, hi);
}

std::string PayloadOfLength(Random* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng->Next());
  return s;
}

TEST(LogRecordTest, EncodedSizeMatchesEncodingProperty) {
  Random rng(0xE5C0DE);
  // Empty, one byte, around the 1->2 byte length-prefix boundary, and long
  // enough to need a 3-byte length prefix.
  const size_t lengths[] = {0, 1, 127, 128, 300, 20000};
  for (int iter = 0; iter < 2000; iter++) {
    LogRecord r;
    auto field = [&] {
      return VarintOfWidth(&rng, static_cast<int>(rng.UniformRange(1, 10)));
    };
    r.lsn = field();
    r.prev_lsn = field();
    r.txn_id = field();
    r.type = static_cast<LogType>(rng.UniformRange(0, 255));
    r.page_id = field();
    r.slot = static_cast<uint16_t>(field());
    r.row_key = field();
    r.compensates_lsn = field();
    r.payload = PayloadOfLength(&rng, lengths[rng.Uniform(6)]);
    r.undo_payload = PayloadOfLength(&rng, lengths[rng.Uniform(6)]);
    std::string buf;
    r.EncodeTo(&buf);
    ASSERT_EQ(r.EncodedSize(), buf.size()) << "iteration " << iter;
  }
  // Every field at its widest at once.
  LogRecord widest;
  widest.lsn = widest.prev_lsn = widest.txn_id = ~0ull;
  widest.page_id = widest.row_key = widest.compensates_lsn = ~0ull;
  widest.slot = 0xFFFF;
  std::string buf;
  widest.EncodeTo(&buf);
  EXPECT_EQ(widest.EncodedSize(), buf.size());
  EXPECT_EQ(buf.size(), 6u * 10 + 1 + 3 + 2);  // 6 u64s, type, slot, 2 lens
}

TEST(LogRecordTest, SplitBatchMatchesDecodeBatch) {
  std::vector<LogRecord> batch;
  for (uint64_t i = 1; i <= 4; i++) {
    LogRecord r;
    r.lsn = i * 1000;
    r.page_id = i == 2 ? kInvalidPageId : i;
    r.payload = std::string(i * 50, 'x');
    batch.push_back(r);
  }
  const std::string wire = LogRecord::EncodeBatch(batch);
  std::vector<EncodedRecord> split;
  ASSERT_TRUE(LogRecord::SplitBatch(wire, &split).ok());
  ASSERT_EQ(split.size(), batch.size());
  for (size_t i = 0; i < batch.size(); i++) {
    EXPECT_EQ(split[i].lsn, batch[i].lsn);
    EXPECT_EQ(split[i].page_id, batch[i].page_id);
    std::string one;
    batch[i].EncodeTo(&one);
    EXPECT_EQ(split[i].bytes.ToString(), one);
  }
  // Every proper prefix of the wire batch is rejected by both.
  for (size_t n = 0; n < wire.size(); n++) {
    const Slice cut(wire.data(), n);
    EXPECT_FALSE(LogRecord::DecodeBatch(cut).ok()) << n;
    EXPECT_TRUE(LogRecord::SplitBatch(cut, &split).IsCorruption()) << n;
  }
}

TEST(LogRecordTest, HugeBatchCountIsCorruptionNotAllocation) {
  std::string wire;
  PutVarint64(&wire, ~0ull);  // claims 2^64-1 records, carries none
  std::vector<EncodedRecord> split;
  EXPECT_TRUE(LogRecord::SplitBatch(wire, &split).IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeBatch(wire).status().IsCorruption());
}

TEST(ApplyRedoTest, InsertUpdateDelete) {
  Page page(10);
  LogRecord ins;
  ins.lsn = 1;
  ins.type = LogType::kInsert;
  ins.page_id = 10;
  ins.slot = 0;
  ins.payload = "v1";
  ASSERT_TRUE(ApplyRedo(&page, ins).ok());
  EXPECT_EQ(page.lsn(), 1u);
  EXPECT_EQ(page.Get(0)->ToString(), "v1");

  LogRecord upd;
  upd.lsn = 2;
  upd.type = LogType::kUpdate;
  upd.page_id = 10;
  upd.slot = 0;
  upd.payload = "v2";
  ASSERT_TRUE(ApplyRedo(&page, upd).ok());
  EXPECT_EQ(page.Get(0)->ToString(), "v2");

  LogRecord del;
  del.lsn = 3;
  del.type = LogType::kDelete;
  del.page_id = 10;
  del.slot = 0;
  ASSERT_TRUE(ApplyRedo(&page, del).ok());
  EXPECT_TRUE(page.Get(0).status().IsNotFound());
  EXPECT_EQ(page.lsn(), 3u);
}

TEST(ApplyRedoTest, IdempotentReplay) {
  // Replaying any prefix repeatedly must converge to the same image — the
  // property log-as-the-database materialization depends on.
  Page once(10);
  Page twice(10);
  std::vector<LogRecord> log;
  for (uint64_t i = 1; i <= 6; i++) {
    LogRecord r;
    r.lsn = i;
    r.page_id = 10;
    if (i % 2 == 1) {
      r.type = LogType::kInsert;
      r.slot = static_cast<uint16_t>((i - 1) / 2);
      r.payload = "val" + std::to_string(i);
    } else {
      r.type = LogType::kUpdate;
      r.slot = static_cast<uint16_t>((i - 2) / 2);
      r.payload = "upd" + std::to_string(i);
    }
    log.push_back(r);
  }
  for (const auto& r : log) ASSERT_TRUE(ApplyRedo(&once, r).ok());
  for (int rep = 0; rep < 3; rep++) {
    for (const auto& r : log) ASSERT_TRUE(ApplyRedo(&twice, r).ok());
  }
  EXPECT_EQ(once.lsn(), twice.lsn());
  for (uint16_t s = 0; s < once.slot_count(); s++) {
    EXPECT_EQ(once.Get(s)->ToString(), twice.Get(s)->ToString());
  }
}

TEST(ApplyRedoTest, CommitRecordsDoNotTouchPages) {
  Page page(10);
  LogRecord commit;
  commit.lsn = 5;
  commit.type = LogType::kTxnCommit;
  commit.txn_id = 1;
  commit.page_id = kInvalidPageId;
  ASSERT_TRUE(ApplyRedo(&page, commit).ok());
  EXPECT_EQ(page.lsn(), kInvalidLsn);
  EXPECT_EQ(page.slot_count(), 0);
}

}  // namespace
}  // namespace disagg
