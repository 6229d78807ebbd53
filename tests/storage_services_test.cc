#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "storage/gossip.h"
#include "storage/log_store.h"
#include "storage/object_store.h"
#include "storage/page_store.h"
#include "storage/quorum.h"
#include "storage/raft_lite.h"

namespace disagg {
namespace {

LogRecord MakeInsert(Lsn lsn, PageId page, uint16_t slot,
                     const std::string& payload, TxnId txn = 1) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = txn;
  r.type = LogType::kInsert;
  r.page_id = page;
  r.slot = slot;
  r.payload = payload;
  return r;
}

LogRecord MakeUpdate(Lsn lsn, PageId page, uint16_t slot,
                     const std::string& payload, TxnId txn = 1) {
  LogRecord r = MakeInsert(lsn, page, slot, payload, txn);
  r.type = LogType::kUpdate;
  return r;
}

std::string Batch(const std::vector<LogRecord>& records) {
  return LogRecord::EncodeBatch(records);
}

std::string Encoded(const LogRecord& r) {
  std::string out;
  r.EncodeTo(&out);
  return out;
}

// Records compare equal iff their encodings do (every field is encoded).
void ExpectSameRecords(const std::vector<LogRecord>& got,
                       const std::vector<LogRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(Encoded(got[i]), Encoded(want[i])) << "record " << i;
  }
}

// A record with every field set, so round trips check all of them.
LogRecord MakeFull(Lsn lsn, size_t payload_len) {
  LogRecord r = MakeUpdate(lsn, 100 + lsn % 7, lsn % 5,
                           std::string(payload_len, 'a' + lsn % 26),
                           /*txn=*/lsn / 3 + 1);
  r.prev_lsn = lsn - 1;
  r.row_key = lsn * 0x9E3779B97F4A7C15ull;
  r.compensates_lsn = lsn % 4 == 0 ? lsn - 2 : kInvalidLsn;
  r.undo_payload = std::string(payload_len / 2, 'u');
  return r;
}

// A two-record batch cut inside its second record.
std::string TruncatedBatch(Lsn first_lsn) {
  const std::string whole =
      Batch({MakeFull(first_lsn, 40), MakeFull(first_lsn + 1, 40)});
  return whole.substr(0, whole.size() - 5);
}

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("log0", NodeKind::kLog, InterconnectModel::Ssd());
    service_ = std::make_unique<LogStoreService>(&fabric_, node_);
    client_ = std::make_unique<LogStoreClient>(&fabric_, node_);
  }

  Fabric fabric_;
  NodeId node_ = 0;
  std::unique_ptr<LogStoreService> service_;
  std::unique_ptr<LogStoreClient> client_;
  NetContext ctx_;
};

TEST_F(LogStoreTest, AppendAdvancesDurableLsn) {
  auto lsn = client_->Append(&ctx_, Batch({MakeInsert(1, 7, 0, "a"),
                                           MakeInsert(2, 7, 1, "b")}));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  EXPECT_EQ(service_->durable_lsn(), 2u);
  EXPECT_EQ(service_->record_count(), 2u);
}

TEST_F(LogStoreTest, AppendIsIdempotentOnResend) {
  std::vector<LogRecord> batch = {MakeInsert(1, 7, 0, "a")};
  ASSERT_TRUE(client_->Append(&ctx_, Batch(batch)).ok());
  ASSERT_TRUE(client_->Append(&ctx_, Batch(batch)).ok());  // duplicate send
  EXPECT_EQ(service_->record_count(), 1u);
}

TEST_F(LogStoreTest, ReadFromReturnsSuffix) {
  ASSERT_TRUE(client_->Append(&ctx_, Batch({MakeInsert(1, 7, 0, "a"),
                                            MakeInsert(2, 7, 1, "b"),
                                            MakeInsert(3, 7, 2, "c")}))
                  .ok());
  auto recs = client_->ReadFrom(&ctx_, 1);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].lsn, 2u);
  EXPECT_EQ((*recs)[1].lsn, 3u);
}

TEST_F(LogStoreTest, TruncateDropsPrefix) {
  ASSERT_TRUE(client_->Append(&ctx_, Batch({MakeInsert(1, 7, 0, "a"),
                                            MakeInsert(2, 7, 1, "b")}))
                  .ok());
  ASSERT_TRUE(client_->Truncate(&ctx_, 1).ok());
  EXPECT_EQ(service_->record_count(), 1u);
  auto recs = client_->ReadFrom(&ctx_, 0);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].lsn, 2u);
}

TEST_F(LogStoreTest, ReadWithZeroMaxReturnsNoRecords) {
  ASSERT_TRUE(client_->Append(&ctx_, Batch({MakeInsert(1, 7, 0, "a"),
                                            MakeInsert(2, 7, 1, "b")}))
                  .ok());
  auto recs = client_->ReadFrom(&ctx_, 0, /*max_records=*/0);
  ASSERT_TRUE(recs.ok());
  EXPECT_TRUE(recs->empty());
}

TEST_F(LogStoreTest, ReadRoundTripsRecordsAndPaginates) {
  std::vector<LogRecord> all;
  for (Lsn lsn = 1; lsn <= 23; lsn++) {
    all.push_back(MakeFull(lsn, lsn % 3 == 0 ? 0 : 10 * lsn));
  }
  // Batches of 5 that overlap their predecessor by one (a re-send).
  for (size_t begin = 0; begin < all.size(); begin += 4) {
    const size_t end = std::min(all.size(), begin + 5);
    const std::vector<LogRecord> batch(all.begin() + begin,
                                       all.begin() + end);
    ASSERT_TRUE(client_->Append(&ctx_, Batch(batch)).ok());
  }
  ASSERT_EQ(service_->record_count(), all.size());
  ExpectSameRecords(service_->SnapshotFrom(0), all);

  std::vector<LogRecord> paged;
  Lsn from = 0;
  for (;;) {
    auto page = client_->ReadFrom(&ctx_, from, /*max_records=*/4);
    ASSERT_TRUE(page.ok());
    ASSERT_LE(page->size(), 4u);
    if (page->empty()) break;
    for (LogRecord& r : *page) paged.push_back(std::move(r));
    from = paged.back().lsn;
  }
  ExpectSameRecords(paged, all);
  ExpectSameRecords(service_->SnapshotFrom(20),
                    std::vector<LogRecord>(all.begin() + 20, all.end()));
}

TEST_F(LogStoreTest, TruncateKeepsTheRestReadableAndAppendable) {
  std::vector<LogRecord> all;
  for (Lsn lsn = 1; lsn <= 6; lsn++) all.push_back(MakeFull(lsn, 8 * lsn));
  ASSERT_TRUE(client_->Append(&ctx_, Batch(all)).ok());
  ASSERT_TRUE(client_->Truncate(&ctx_, 3).ok());
  auto rest = client_->ReadFrom(&ctx_, 0);
  ASSERT_TRUE(rest.ok());
  ExpectSameRecords(*rest, std::vector<LogRecord>(all.begin() + 3, all.end()));
  all.push_back(MakeFull(7, 5));
  ASSERT_TRUE(client_->Append(&ctx_, Batch({all.back()})).ok());
  ExpectSameRecords(service_->SnapshotFrom(4),
                    std::vector<LogRecord>(all.begin() + 4, all.end()));
  ASSERT_TRUE(client_->Truncate(&ctx_, 100).ok());
  EXPECT_EQ(service_->record_count(), 0u);
  EXPECT_EQ(service_->durable_lsn(), 7u);
}

TEST_F(LogStoreTest, MalformedAppendIsCorruptionAndChangesNothing) {
  const std::vector<LogRecord> first = {MakeFull(1, 10), MakeFull(2, 20)};
  ASSERT_TRUE(client_->Append(&ctx_, Batch(first)).ok());
  // The truncated batch's first record is whole and would advance the log
  // if the service stored records before checking the rest.
  for (const std::string& bad :
       {TruncatedBatch(3), std::string(), std::string("\x05\x01", 2)}) {
    EXPECT_TRUE(client_->Append(&ctx_, bad).status().IsCorruption());
    EXPECT_EQ(service_->durable_lsn(), 2u);
    EXPECT_EQ(service_->record_count(), 2u);
    ExpectSameRecords(service_->SnapshotFrom(0), first);
  }
}

class PageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("ps0", NodeKind::kStorage,
                            InterconnectModel::Ssd());
    service_ = std::make_unique<PageStoreService>(&fabric_, node_);
    client_ = std::make_unique<PageStoreClient>(&fabric_, node_);
  }

  Fabric fabric_;
  NodeId node_ = 0;
  std::unique_ptr<PageStoreService> service_;
  std::unique_ptr<PageStoreClient> client_;
  NetContext ctx_;
};

TEST_F(PageStoreTest, LogShippingMaterializesOnRead) {
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Batch({MakeInsert(1, 5, 0, "hello"),
                                              MakeUpdate(2, 5, 0, "world")}))
                  .ok());
  EXPECT_EQ(service_->pending_records(), 2u);
  EXPECT_EQ(service_->materialized_pages(), 0u);  // asynchronous
  auto page = client_->GetPage(&ctx_, 5);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->lsn(), 2u);
  EXPECT_EQ(page->Get(0)->ToString(), "world");
  EXPECT_EQ(service_->pending_records(), 0u);
}

TEST_F(PageStoreTest, PageShippingStoresImages) {
  Page page(8);
  ASSERT_TRUE(page.Insert("direct").ok());
  page.set_lsn(3);
  ASSERT_TRUE(client_->PutPage(&ctx_, page).ok());
  auto got = client_->GetPage(&ctx_, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->Get(0)->ToString(), "direct");
}

TEST_F(PageStoreTest, StalePutDoesNotRegress) {
  Page newer(8);
  ASSERT_TRUE(newer.Insert("new").ok());
  newer.set_lsn(10);
  ASSERT_TRUE(client_->PutPage(&ctx_, newer).ok());
  Page older(8);
  ASSERT_TRUE(older.Insert("old").ok());
  older.set_lsn(4);
  ASSERT_TRUE(client_->PutPage(&ctx_, older).ok());
  auto got = client_->GetPage(&ctx_, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->lsn(), 10u);
  EXPECT_EQ(got->Get(0)->ToString(), "new");
}

TEST_F(PageStoreTest, MissingPageIsNotFound) {
  EXPECT_TRUE(client_->GetPage(&ctx_, 999).status().IsNotFound());
}

TEST_F(PageStoreTest, HighWaterTracksControlRecords) {
  LogRecord commit;
  commit.lsn = 9;
  commit.type = LogType::kTxnCommit;
  commit.page_id = kInvalidPageId;
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Batch({commit})).ok());
  EXPECT_EQ(service_->high_water_lsn(), 9u);
  EXPECT_EQ(service_->pending_records(), 0u);
}

TEST_F(PageStoreTest, MalformedApplyLogIsCorruptionAndChangesNothing) {
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Batch({MakeInsert(1, 5, 0, "keep")}))
                  .ok());
  EXPECT_TRUE(client_->ApplyLog(&ctx_, TruncatedBatch(2)).status()
                  .IsCorruption());
  EXPECT_EQ(service_->high_water_lsn(), 1u);
  EXPECT_EQ(service_->pending_records(), 1u);
  EXPECT_EQ(service_->PageVersions(), (std::map<PageId, Lsn>{{5, 1}}));
  auto page = client_->GetPage(&ctx_, 5);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->lsn(), 1u);
  EXPECT_EQ(page->Get(0)->ToString(), "keep");
}

TEST_F(PageStoreTest, FailedReplayLeavesRedoPending) {
  // An update to a slot the page never had cannot replay.
  ASSERT_TRUE(
      client_->ApplyLog(&ctx_, Batch({MakeUpdate(1, 5, 3, "orphan")})).ok());
  EXPECT_FALSE(client_->GetPage(&ctx_, 5).ok());
  EXPECT_EQ(service_->pending_records(), 1u);
  EXPECT_EQ(service_->MaterializeAll(), 1u);
  EXPECT_EQ(service_->pending_records(), 1u);
}

TEST_F(PageStoreTest, IngestDropsOnlyCoveredRedo) {
  std::vector<LogRecord> redo = {MakeInsert(1, 5, 0, "v1")};
  for (Lsn lsn = 2; lsn <= 4; lsn++) {
    redo.push_back(MakeUpdate(lsn, 5, 0, "v" + std::to_string(lsn)));
  }
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Batch(redo)).ok());
  Page image(5);
  ASSERT_TRUE(image.Insert("v2").ok());
  image.set_lsn(2);
  service_->IngestPage(image);
  EXPECT_EQ(service_->pending_records(), 2u);
  EXPECT_EQ(service_->PageVersions().at(5), 4u);
  auto page = client_->GetPage(&ctx_, 5);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->lsn(), 4u);
  EXPECT_EQ(page->Get(0)->ToString(), "v4");
}

TEST(QuorumTest, RevivedReplicasResyncToTheHealthyLog) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  Lsn lsn = 0;
  auto append = [&](int n) {
    std::vector<LogRecord> batch;
    for (int i = 0; i < n; i++) {
      lsn++;
      batch.push_back(MakeFull(lsn, 12 + lsn));
      batch.back().page_id = 1 + lsn % 3;
      batch.back().type = LogType::kInsert;
      batch.back().slot = static_cast<uint16_t>((lsn - 1) / 3);
    }
    ASSERT_TRUE(segment.AppendLog(&ctx, batch).ok());
  };
  append(3);
  // Replicas 0 and 1 miss different amounts of history, so the revival
  // append sends three different suffixes.
  fabric.node(segment.replica(0).node)->Fail();
  append(2);
  fabric.node(segment.replica(1).node)->Fail();
  append(4);
  fabric.node(segment.replica(0).node)->Revive();
  fabric.node(segment.replica(1).node)->Revive();
  append(1);
  EXPECT_EQ(segment.CountDurable(lsn), 6);

  const std::vector<LogRecord> healthy =
      segment.replica(5).log_service->SnapshotFrom(0);
  ASSERT_EQ(healthy.size(), lsn);
  for (size_t i = 0; i < 2; i++) {
    ExpectSameRecords(segment.replica(i).log_service->SnapshotFrom(0),
                      healthy);
    segment.replica(i).page_service->MaterializeAll();
  }
  segment.replica(5).page_service->MaterializeAll();
  for (PageId id = 1; id <= 3; id++) {
    auto want = segment.replica(5).page_service->PeekPage(id);
    ASSERT_TRUE(want.ok());
    for (size_t i = 0; i < 2; i++) {
      auto got = segment.replica(i).page_service->PeekPage(id);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->lsn(), want->lsn());
      EXPECT_EQ(std::string(got->data(), kPageSize),
                std::string(want->data(), kPageSize));
    }
  }
}

TEST(QuorumTest, AuroraQuorumSurvivesAzFailure) {
  Fabric fabric;
  ReplicatedSegment::Config cfg;  // 6 replicas / 3 AZs / W=4 / R=3
  ReplicatedSegment segment(&fabric, cfg);
  NetContext ctx;

  ASSERT_TRUE(segment.AppendLog(&ctx, {MakeInsert(1, 1, 0, "a")}).ok());
  EXPECT_EQ(segment.CountDurable(1), 6);

  segment.FailAz(0);  // lose 2 of 6 replicas
  auto lsn = segment.AppendLog(&ctx, {MakeInsert(2, 1, 1, "b")});
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(segment.CountDurable(2), 4);

  // Losing one more node blocks writes (3 < W=4)...
  fabric.node(segment.replica(1).node)->Fail();
  EXPECT_TRUE(
      segment.AppendLog(&ctx, {MakeInsert(3, 1, 2, "c")}).status()
          .IsUnavailable());
  // ...but the read quorum still sees every committed write: the recovered
  // LSN is never below the quorum-committed LSN 2 (it may exceed it when an
  // incomplete write reached some replicas; Aurora completes or truncates
  // such writes during repair).
  auto durable = segment.RecoverDurableLsn(&ctx);
  ASSERT_TRUE(durable.ok());
  EXPECT_GE(*durable, 2u);
}

TEST(QuorumTest, ReadPagePrefersCurrentReplica) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  ASSERT_TRUE(segment.AppendLog(&ctx, {MakeInsert(1, 3, 0, "x")}).ok());
  auto page = segment.ReadPage(&ctx, 3, /*min_lsn=*/1);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "x");
  // A future LSN no replica has acked yet is unavailable.
  EXPECT_TRUE(segment.ReadPage(&ctx, 3, /*min_lsn=*/99).status()
                  .IsUnavailable());
}

TEST(QuorumTest, ParallelFanOutChargesMaxNotSum) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  ASSERT_TRUE(segment.AppendLog(&ctx, {MakeInsert(1, 1, 0, "a")}).ok());
  // One append = log.append + page.apply_log to ONE replica's worth of
  // simulated time (fan-out is parallel), so well under 6x a single RPC pair.
  NetContext single;
  LogStoreClient one(&fabric, segment.replica(0).node);
  ASSERT_TRUE(one.Append(&single, Batch({MakeInsert(2, 1, 1, "b")})).ok());
  EXPECT_LT(ctx.sim_ns, 4 * single.sim_ns);
  EXPECT_GT(ctx.bytes_out, 5 * single.bytes_out);  // but 6x the traffic
}

TEST(RaftLiteTest, AppendCommitsOnMajority) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  auto idx = group.Append(&ctx, "write-1");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  auto entry = group.ReadCommitted(0);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "write-1");
  // All three replicas hold the entry.
  for (int i = 0; i < group.size(); i++) {
    EXPECT_EQ(group.replica(i)->log_size(), 1u);
  }
}

TEST(RaftLiteTest, ToleratesOneFailureOfThree) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  fabric.node(group.replica_node(2))->Fail();
  ASSERT_TRUE(group.Append(&ctx, "a").ok());
  ASSERT_TRUE(group.Append(&ctx, "b").ok());
  // Two failures => no majority.
  fabric.node(group.replica_node(1))->Fail();
  EXPECT_TRUE(group.Append(&ctx, "c").status().IsUnavailable());
}

TEST(RaftLiteTest, FailoverPreservesCommittedAndCatchesUpLaggards) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  fabric.node(group.replica_node(2))->Fail();
  ASSERT_TRUE(group.Append(&ctx, "a").ok());
  ASSERT_TRUE(group.Append(&ctx, "b").ok());

  // Old leader dies; the lagging replica revives.
  fabric.node(group.replica_node(0))->Fail();
  fabric.node(group.replica_node(2))->Revive();
  auto leader = group.ElectLeader(&ctx);
  ASSERT_TRUE(leader.ok());
  EXPECT_EQ(*leader, 1);  // the only up-to-date live replica

  // New leader retains both entries and catches up replica 2.
  EXPECT_EQ(group.replica(1)->log_size(), 2u);
  EXPECT_EQ(group.replica(2)->log_size(), 2u);
  ASSERT_TRUE(group.Append(&ctx, "c").ok());
  auto e = group.ReadCommitted(2);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->payload, "c");
}

TEST(RaftLiteTest, LagHintCatchesUpFollowerWithoutIndexWalk) {
  // A follower that is merely far behind must converge in O(1) rounds: the
  // reject response's log-size hint jumps next_index to the follower's end
  // instead of probing back one index per round.
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  fabric.node(group.replica_node(2))->Fail();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(group.Append(&ctx, "e" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(group.ElectLeader(&ctx, 0).ok());  // next_index = 100 for all
  fabric.node(group.replica_node(2))->Revive();
  ASSERT_TRUE(group.SyncFollower(&ctx, 2).ok());  // one reject + one send
  EXPECT_EQ(group.replica(2)->log_size(), 100u);
}

TEST(RaftLiteTest, NonConvergenceIsBusyAndResumes) {
  // Regression: non-convergence within one call's round budget used to
  // surface as TimedOut, which the status contract reserves for simulated
  // infrastructure failures; it is retryable contention (Busy), and the
  // match point found so far must persist so a second call converges.
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  // While replica 2 is partitioned away, fabricate a same-length divergent
  // log on it (a stale regime's garbage: alien terms at every index), and
  // commit 100 real entries on the live majority.
  fabric.node(group.replica_node(2))->Fail();
  for (int i = 0; i < 100; i++) {
    group.replica(2)->AppendLocal(RaftEntry{/*term=*/99, "junk"});
    ASSERT_TRUE(group.Append(&ctx, "e" + std::to_string(i)).ok());
  }
  // Re-assert leadership while 2 is still down: next_index starts at the
  // optimistic 100 and the dead follower consumes no probe rounds.
  ASSERT_TRUE(group.ElectLeader(&ctx, 0).ok());
  fabric.node(group.replica_node(2))->Revive();

  // Every probe hits an alien term, the hint (log size 100) never helps, so
  // one call's budget (64 rounds) cannot reach index 0.
  Status st = group.SyncFollower(&ctx, 2);
  EXPECT_TRUE(st.IsBusy()) << st.ToString();
  EXPECT_FALSE(st.IsTimedOut());

  // The walk resumes from the stalled match point and converges.
  ASSERT_TRUE(group.SyncFollower(&ctx, 2).ok());
  ASSERT_EQ(group.replica(2)->log_size(), 100u);
  auto e = group.replica(2)->entry(0);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->term, 1u);  // the real log replaced the junk
}

TEST(ObjectStoreTest, ImmutablePutGetListDelete) {
  Fabric fabric;
  NodeId node = fabric.AddNode("s3", NodeKind::kObject,
                               InterconnectModel::ObjectStore());
  ObjectStoreService service(&fabric, node);
  ObjectStoreClient client(&fabric, node);
  NetContext ctx;

  ASSERT_TRUE(client.Put(&ctx, "tbl/part-0", "AAAA").ok());
  ASSERT_TRUE(client.Put(&ctx, "tbl/part-1", "BBBB").ok());
  EXPECT_TRUE(client.Put(&ctx, "tbl/part-0", "CCCC").IsInvalidArgument());

  auto blob = client.Get(&ctx, "tbl/part-1");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "BBBB");
  EXPECT_TRUE(client.Get(&ctx, "missing").status().IsNotFound());

  auto keys = client.List(&ctx, "tbl/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);

  ASSERT_TRUE(client.Delete(&ctx, "tbl/part-0").ok());
  EXPECT_EQ(service.object_count(), 1u);
  EXPECT_TRUE(client.Delete(&ctx, "tbl/part-0").IsNotFound());
}

TEST(ObjectStoreTest, ObjectStoreIsSlowestTier) {
  Fabric fabric;
  NodeId obj = fabric.AddNode("s3", NodeKind::kObject,
                              InterconnectModel::ObjectStore());
  ObjectStoreService service(&fabric, obj);
  ObjectStoreClient client(&fabric, obj);
  NetContext ctx;
  ASSERT_TRUE(client.Put(&ctx, "k", "v").ok());
  EXPECT_GT(ctx.sim_ns, 1'000'000u);  // multi-millisecond
}

class GossipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; i++) {
      NodeId n = fabric_.AddNode("ps" + std::to_string(i),
                                 NodeKind::kStorage, InterconnectModel::Ssd());
      services_.push_back(std::make_unique<PageStoreService>(&fabric_, n));
    }
    std::vector<PageStoreService*> ptrs;
    for (auto& s : services_) ptrs.push_back(s.get());
    group_ = std::make_unique<GossipGroup>(&fabric_, ptrs);
  }

  Fabric fabric_;
  std::vector<std::unique_ptr<PageStoreService>> services_;
  std::unique_ptr<GossipGroup> group_;
  NetContext ctx_;
};

TEST_F(GossipTest, SpreadsPagesToAllStores) {
  // Taurus: the writer sends the page to ONE store only.
  PageStoreClient writer(&fabric_, services_[0]->node());
  ASSERT_TRUE(
      writer.ApplyLog(&ctx_, Batch({MakeInsert(1, 11, 0, "gossip-me")})).ok());
  EXPECT_FALSE(group_->Converged());
  const size_t rounds = group_->RunUntilConverged(&ctx_);
  EXPECT_LE(rounds, 16u);
  EXPECT_TRUE(group_->Converged());
  for (auto& s : services_) {
    s->MaterializeAll();
    auto page = s->PeekPage(11);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->Get(0)->ToString(), "gossip-me");
  }
}

TEST_F(GossipTest, StalenessDropsMonotonically) {
  PageStoreClient writer(&fabric_, services_[0]->node());
  ASSERT_TRUE(writer.ApplyLog(&ctx_, Batch({MakeInsert(1, 11, 0, "v0")})).ok());
  for (Lsn lsn = 2; lsn <= 8; lsn++) {
    ASSERT_TRUE(
        writer.ApplyLog(&ctx_, Batch({MakeUpdate(lsn, 11, 0, "v")})).ok());
  }
  services_[0]->MaterializeAll();
  uint64_t prev = group_->MaxStaleness();
  EXPECT_GT(prev, 0u);
  for (int i = 0; i < 10 && !group_->Converged(); i++) {
    group_->RunRound(&ctx_);
    const uint64_t now = group_->MaxStaleness();
    EXPECT_LE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace disagg
