#include <gtest/gtest.h>

#include <string>

#include "common/logging.h"
#include "pm/pilot_log.h"
#include "pm/pm_node.h"

namespace disagg {
namespace {

class PmNodeTest : public ::testing::Test {
 protected:
  PmNodeTest() : pm_(&fabric_, "pm0", 1 << 20), client_(&fabric_, &pm_) {}

  GlobalAddr Alloc(size_t n) {
    auto a = pm_.AllocLocal(n);
    DISAGG_CHECK(a.ok());
    return *a;
  }

  std::string ReadBack(GlobalAddr addr, size_t n) {
    std::string out(n, '\0');
    NetContext ctx;
    DISAGG_CHECK_OK(client_.ReadRemote(&ctx, addr, out.data(), n));
    return out;
  }

  Fabric fabric_;
  PmNode pm_;
  PmClient client_;
  NetContext ctx_;
};

TEST_F(PmNodeTest, UnflushedWriteIsLostOnCrash) {
  // Kalia et al.: a one-sided RDMA write is NOT persistent by itself — the
  // bytes may still sit in NIC/PCIe buffers.
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "volatile-data").ok());
  EXPECT_EQ(ReadBack(addr, 13), "volatile-data");  // visible...
  EXPECT_EQ(pm_.staged_writes(), 1u);
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 13), std::string(13, '\0'));  // ...but gone
}

TEST_F(PmNodeTest, FlushReadMakesWritesDurable) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "durable-data!").ok());
  ASSERT_TRUE(client_.FlushRead(&ctx_, addr).ok());
  EXPECT_EQ(pm_.staged_writes(), 0u);
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 13), "durable-data!");
}

TEST_F(PmNodeTest, RpcPersistIsDurable) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "rpc-persisted").ok());
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 13), "rpc-persisted");
}

TEST_F(PmNodeTest, CrashRestoresOverlappingWritesInOrder) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "BASE").ok());
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "1111").ok());
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "2222").ok());
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 4), "BASE");
}

TEST_F(PmNodeTest, RejectedUnsafeWriteStagesNothing) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "KEEP").ok());
  MemoryRegion* region = fabric_.node(pm_.node())->region(pm_.region());
  const std::string before(region->data(), region->size());
  const std::string data(64, 'x');

  // Past the end of the region, and into a region that does not exist: the
  // fabric refuses both, and nothing is staged for Crash() to "restore".
  GlobalAddr past_end = addr;
  past_end.offset = region->size() - 8;
  EXPECT_TRUE(client_.WriteUnsafe(&ctx_, past_end, data).IsInvalidArgument());
  GlobalAddr bad_region = addr;
  bad_region.region = pm_.region() + 7;
  EXPECT_TRUE(
      client_.WriteUnsafe(&ctx_, bad_region, data).IsInvalidArgument());
  EXPECT_EQ(pm_.staged_writes(), 0u);

  pm_.Crash();
  EXPECT_TRUE(std::string(region->data(), region->size()) == before);
}

// The persist RPC carries only an offset and the server writes its pool
// region, so an address in another region or on another node must be
// refused on the client — otherwise it would land in the pool.
TEST_F(PmNodeTest, PersistRpcRefusesAddressOutsideThePool) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "KEEP").ok());
  MemoryRegion* pool = fabric_.node(pm_.node())->region(pm_.region());
  MemoryRegion* other = fabric_.node(pm_.node())->AddRegion("other", 4096);
  const std::string before(pool->data(), pool->size());
  const uint64_t rpcs = ctx_.rpcs;
  const uint64_t sim_ns = ctx_.sim_ns;

  const GlobalAddr other_region{pm_.node(), other->id(), addr.offset};
  EXPECT_TRUE(client_.WritePersistRpc(&ctx_, other_region, "XXXX")
                  .IsInvalidArgument());
  GlobalAddr other_node = addr;
  other_node.node = pm_.node() + 1;
  EXPECT_TRUE(
      client_.WritePersistRpc(&ctx_, other_node, "YYYY").IsInvalidArgument());

  EXPECT_EQ(ctx_.rpcs, rpcs);  // refused before any verb
  EXPECT_EQ(ctx_.sim_ns, sim_ns);
  EXPECT_TRUE(std::string(pool->data(), pool->size()) == before);
  EXPECT_EQ(std::string(other->data(), 4), std::string(4, '\0'));
}

TEST_F(PmNodeTest, TwoSidedPersistBeatsOneSidedPersist) {
  // Kalia et al.'s counterintuitive result: the RPC path (1 round trip,
  // server-side persist) is faster than WRITE + flush-READ (2 round trips).
  GlobalAddr addr = Alloc(256);
  const std::string data(128, 'x');
  NetContext one_sided, rpc;
  ASSERT_TRUE(client_.WritePersistOneSided(&one_sided, addr, data).ok());
  ASSERT_TRUE(client_.WritePersistRpc(&rpc, addr, data).ok());
  EXPECT_LT(rpc.sim_ns, one_sided.sim_ns);
  EXPECT_EQ(rpc.round_trips, 1u);
  EXPECT_EQ(one_sided.round_trips, 2u);
}

TEST_F(PmNodeTest, RemotePmBeatsLocalIoStack) {
  // Exadata's observation: RDMA to remote PM is faster than local PM through
  // the kernel I/O stack.
  GlobalAddr addr = Alloc(8192);
  char buf[8192];
  NetContext remote, local;
  ASSERT_TRUE(client_.ReadRemote(&remote, addr, buf, sizeof(buf)).ok());
  ASSERT_TRUE(client_.ReadLocalViaIoStack(&local, addr, buf, sizeof(buf)).ok());
  EXPECT_LT(remote.sim_ns, local.sim_ns);
}

LogRecord MakeUpdate(Lsn lsn, PageId page, uint16_t slot,
                     const std::string& payload) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = 1;
  r.type = LogType::kUpdate;
  r.page_id = page;
  r.slot = slot;
  r.payload = payload;
  return r;
}

class PilotLogTest : public ::testing::Test {
 protected:
  PilotLogTest()
      : pm_(&fabric_, "pm0", 8 << 20),
        log_(&fabric_, &pm_, /*log_capacity=*/1 << 20, /*max_pages=*/16) {
    Page page(1);
    DISAGG_CHECK(page.Insert("v0").ok());
    page.set_lsn(1);
    DISAGG_CHECK_OK(log_.CreatePage(&ctx_, page));
  }

  Fabric fabric_;
  PmNode pm_;
  PilotLog log_;
  NetContext ctx_;
};

TEST_F(PilotLogTest, FastReadWhenApplierCaughtUp) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2")}).ok());
  EXPECT_GT(log_.UnappliedBytes(), 0u);
  EXPECT_GT(log_.ApplyOnPmSide(), 0u);
  EXPECT_EQ(log_.UnappliedBytes(), 0u);
  auto page = log_.ReadPage(&ctx_, 1, /*expected_lsn=*/2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v2");
  EXPECT_EQ(log_.stats().fast_reads, 1u);
  EXPECT_EQ(log_.stats().replay_reads, 0u);
}

TEST_F(PilotLogTest, StaleReadReplaysLogLocally) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2"),
                                     MakeUpdate(3, 1, 0, "v3")})
                  .ok());
  // Applier intentionally NOT run: the optimistic read must replay.
  auto page = log_.ReadPage(&ctx_, 1, /*expected_lsn=*/3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v3");
  EXPECT_EQ(log_.stats().replay_reads, 1u);
  EXPECT_EQ(log_.stats().replayed_records, 2u);
}

TEST_F(PilotLogTest, RpcAppendAlsoLands) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2")},
                             PilotLog::LogMode::kRpc)
                  .ok());
  log_.ApplyOnPmSide();
  auto page = log_.ReadPage(&ctx_, 1, 2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v2");
}

TEST_F(PilotLogTest, OneSidedAppendSkipsPmServerCpu) {
  NetContext one_sided, rpc;
  ASSERT_TRUE(log_.AppendLog(&one_sided, {MakeUpdate(2, 1, 0, "v2")},
                             PilotLog::LogMode::kOneSided)
                  .ok());
  ASSERT_TRUE(log_.AppendLog(&rpc, {MakeUpdate(3, 1, 0, "v3")},
                             PilotLog::LogMode::kRpc)
                  .ok());
  EXPECT_EQ(one_sided.rpcs, 0u);  // never touches the server CPU
  EXPECT_EQ(rpc.rpcs, 1u);
}

TEST_F(PilotLogTest, ReadUnknownPageIsNotFound) {
  EXPECT_TRUE(log_.ReadPage(&ctx_, 404, 1).status().IsNotFound());
}

TEST_F(PilotLogTest, ReplayCannotExceedLoggedLsn) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2")}).ok());
  EXPECT_TRUE(
      log_.ReadPage(&ctx_, 1, /*expected_lsn=*/9).status().IsUnavailable());
}

}  // namespace
}  // namespace disagg
