#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

#include "common/coding.h"
#include "net/fabric.h"
#include "net/interconnect.h"

namespace disagg {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_node_ = fabric_.AddNode("mem0", NodeKind::kMemory,
                                InterconnectModel::Rdma());
    region_ = fabric_.node(mem_node_)->AddRegion("heap", 1 << 20);
  }

  Fabric fabric_;
  NodeId mem_node_ = 0;
  MemoryRegion* region_ = nullptr;
  NetContext ctx_;
};

TEST_F(FabricTest, WriteThenReadRoundTrips) {
  const std::string payload = "disaggregated";
  GlobalAddr addr{mem_node_, region_->id(), 128};
  ASSERT_TRUE(fabric_.Write(&ctx_, addr, payload.data(), payload.size()).ok());
  char buf[32] = {0};
  ASSERT_TRUE(fabric_.Read(&ctx_, addr, buf, payload.size()).ok());
  EXPECT_EQ(std::string(buf, payload.size()), payload);
  EXPECT_EQ(ctx_.round_trips, 2u);
  EXPECT_EQ(ctx_.bytes_out, payload.size());
  EXPECT_EQ(ctx_.bytes_in, payload.size());
}

TEST_F(FabricTest, CostModelChargesBasePlusBytes) {
  const InterconnectModel m = InterconnectModel::Rdma();
  char buf[4096];
  GlobalAddr addr{mem_node_, region_->id(), 0};
  NetContext ctx;
  ASSERT_TRUE(fabric_.Read(&ctx, addr, buf, 4096).ok());
  EXPECT_EQ(ctx.sim_ns, m.ReadCost(4096));
  EXPECT_GT(m.ReadCost(4096), m.ReadCost(8));
}

TEST_F(FabricTest, OutOfBoundsRejected) {
  char buf[16];
  GlobalAddr addr{mem_node_, region_->id(), (1 << 20) - 8};
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 16).IsInvalidArgument());
  EXPECT_TRUE(fabric_.Write(&ctx_, addr, buf, 16).IsInvalidArgument());
}

TEST_F(FabricTest, UnknownNodeRejected) {
  char buf[8];
  GlobalAddr addr{999, 0, 0};
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 8).IsInvalidArgument());
}

TEST_F(FabricTest, CompareAndSwapSemantics) {
  GlobalAddr addr{mem_node_, region_->id(), 64};
  uint64_t init = 7;
  ASSERT_TRUE(fabric_.Write(&ctx_, addr, &init, 8).ok());

  // Successful CAS observes the expected value.
  auto r1 = fabric_.CompareAndSwap(&ctx_, addr, 7, 11);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 7u);

  // Failed CAS observes the current value and does not modify memory.
  auto r2 = fabric_.CompareAndSwap(&ctx_, addr, 7, 99);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 11u);
  auto v = fabric_.ReadAtomic64(&ctx_, addr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 11u);
}

TEST_F(FabricTest, CasRequiresAlignment) {
  GlobalAddr addr{mem_node_, region_->id(), 3};
  EXPECT_FALSE(fabric_.CompareAndSwap(&ctx_, addr, 0, 1).ok());
}

TEST_F(FabricTest, FetchAddAccumulates) {
  GlobalAddr addr{mem_node_, region_->id(), 256};
  for (uint64_t i = 0; i < 5; i++) {
    auto r = fabric_.FetchAdd(&ctx_, addr, 10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, i * 10);
  }
  auto v = fabric_.ReadAtomic64(&ctx_, addr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 50u);
}

TEST_F(FabricTest, DoorbellBatchingPaysOneBaseLatency) {
  const InterconnectModel m = InterconnectModel::Rdma();
  char a[64], b[64], c[64];
  std::memset(a, 1, sizeof(a));
  std::memset(b, 2, sizeof(b));
  std::memset(c, 3, sizeof(c));

  NetContext batched;
  std::vector<Fabric::WriteOp> ops = {
      {{region_->id(), 0}, a, 64},
      {{region_->id(), 64}, b, 64},
      {{region_->id(), 128}, c, 64},
  };
  ASSERT_TRUE(fabric_.WriteBatch(&batched, mem_node_, ops).ok());
  EXPECT_EQ(batched.round_trips, 1u);

  NetContext separate;
  for (const auto& op : ops) {
    GlobalAddr addr{mem_node_, op.addr.region, op.addr.offset};
    ASSERT_TRUE(fabric_.Write(&separate, addr, op.src, op.n).ok());
  }
  EXPECT_EQ(separate.round_trips, 3u);
  EXPECT_LT(batched.sim_ns, separate.sim_ns);
  EXPECT_EQ(separate.sim_ns - batched.sim_ns, 2 * m.write_base_ns);
}

TEST_F(FabricTest, RpcDispatchAndComputeCharging) {
  Node* n = fabric_.node(mem_node_);
  n->set_cpu_scale(4.0);  // wimpy memory-pool CPU
  n->RegisterHandler("echo", [](Slice req, std::string* resp,
                                RpcServerContext* sctx) {
    resp->assign(req.data(), req.size());
    sctx->ChargeCompute(1000);
    return Status::OK();
  });

  std::string resp;
  ASSERT_TRUE(fabric_.Call(&ctx_, mem_node_, "echo", "ping", &resp).ok());
  EXPECT_EQ(resp, "ping");
  EXPECT_EQ(ctx_.rpcs, 1u);
  const InterconnectModel m = InterconnectModel::Rdma();
  EXPECT_EQ(ctx_.sim_ns, m.RpcCost(4, 4) + 4000);
}

TEST_F(FabricTest, RpcUnknownMethod) {
  std::string resp;
  EXPECT_TRUE(
      fabric_.Call(&ctx_, mem_node_, "nope", "x", &resp).IsNotSupported());
}

TEST_F(FabricTest, FailedNodeIsUnavailableUntilRevived) {
  fabric_.node(mem_node_)->Fail();
  char buf[8];
  GlobalAddr addr{mem_node_, region_->id(), 0};
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 8).IsUnavailable());
  EXPECT_FALSE(fabric_.CompareAndSwap(&ctx_, addr, 0, 1).ok());
  fabric_.node(mem_node_)->Revive();
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 8).ok());
}

// Sanitizer runtimes keep shadow memory and allocator metadata of their own,
// so the resident-set bound below only holds in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DISAGG_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DISAGG_TEST_SANITIZED 1
#endif
#endif

#ifndef DISAGG_TEST_SANITIZED
// Resident set of this process in bytes, from /proc/self/statm.
size_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}
#endif

TEST(MemoryRegionTest, HugeRegionIsLazilyZeroed) {
#ifndef DISAGG_TEST_SANITIZED
  const size_t rss_before = ResidentBytes();
#endif
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("mem", NodeKind::kMemory, InterconnectModel::Rdma());
  constexpr uint64_t kSize = uint64_t{1} << 30;
  MemoryRegion* region = fabric.node(node)->AddRegion("huge", kSize);
  ASSERT_EQ(region->size(), kSize);
  NetContext ctx;
  auto at = [&](uint64_t offset) {
    return GlobalAddr{node, region->id(), offset};
  };

  // A few words touched far apart...
  const uint64_t touched[] = {0, (kSize / 3) & ~uint64_t{7}, kSize - 8};
  for (uint64_t off : touched) {
    const uint64_t v = off + 1;
    ASSERT_TRUE(fabric.Write(&ctx, at(off), &v, 8).ok());
    auto back = fabric.ReadAtomic64(&ctx, at(off));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, off + 1);
  }

  // ...and every verb sees zero everywhere else. Each verb gets offsets of
  // its own, since CAS and FetchAdd write what they find.
  for (uint64_t i = 1; i <= 7; i++) {
    const uint64_t base = i * (kSize / 8);
    char buf[64];
    std::memset(buf, 0x5a, sizeof(buf));
    ASSERT_TRUE(fabric.Read(&ctx, at(base), buf, sizeof(buf)).ok());
    EXPECT_EQ(std::string(buf, sizeof(buf)), std::string(sizeof(buf), '\0'));

    auto word = fabric.ReadAtomic64(&ctx, at(base + 4096));
    ASSERT_TRUE(word.ok());
    EXPECT_EQ(*word, 0u);

    auto cas = fabric.CompareAndSwap(&ctx, at(base + 2 * 4096), 0, 42);
    ASSERT_TRUE(cas.ok());
    EXPECT_EQ(*cas, 0u);  // expected 0 observed: the swap happened
    auto swapped = fabric.ReadAtomic64(&ctx, at(base + 2 * 4096));
    ASSERT_TRUE(swapped.ok());
    EXPECT_EQ(*swapped, 42u);

    auto faa = fabric.FetchAdd(&ctx, at(base + 3 * 4096), 5);
    ASSERT_TRUE(faa.ok());
    EXPECT_EQ(*faa, 0u);
  }

#ifndef DISAGG_TEST_SANITIZED
  // Host memory follows the touched pages, not the provisioned gigabyte.
  const size_t rss_after = ResidentBytes();
  ASSERT_GT(rss_after, 0u);
  EXPECT_LT(rss_after, rss_before + (size_t{32} << 20))
      << "before=" << rss_before << " after=" << rss_after;
#endif
}

TEST(MemoryRegionTest, EmptyRegionRefusesEveryNonEmptyVerb) {
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("mem", NodeKind::kMemory, InterconnectModel::Rdma());
  MemoryRegion* region = fabric.node(node)->AddRegion("empty", 0);
  EXPECT_EQ(region->size(), 0u);
  EXPECT_FALSE(region->Contains(0, 1));
  NetContext ctx;
  const GlobalAddr addr{node, region->id(), 0};
  char buf[8] = {0};
  EXPECT_TRUE(fabric.Read(&ctx, addr, buf, 1).IsInvalidArgument());
  EXPECT_TRUE(fabric.Write(&ctx, addr, buf, 1).IsInvalidArgument());
  EXPECT_TRUE(
      fabric.CompareAndSwap(&ctx, addr, 0, 1).status().IsInvalidArgument());
  EXPECT_TRUE(fabric.FetchAdd(&ctx, addr, 1).status().IsInvalidArgument());
  EXPECT_TRUE(fabric.ReadAtomic64(&ctx, addr).status().IsInvalidArgument());
  std::vector<Fabric::WriteOp> batch = {{addr.remote(), buf, 1}};
  EXPECT_TRUE(fabric.WriteBatch(&ctx, node, batch).IsInvalidArgument());
  std::vector<Fabric::BatchOp> ops(1);
  ops[0].addr = addr.remote();
  ops[0].dst = buf;
  ops[0].n = 1;
  EXPECT_TRUE(fabric.ExecuteBatch(&ctx, node, &ops).IsInvalidArgument());
  fabric.EnableOpBatching(true);  // the coalesced kBatch path checks too
  EXPECT_TRUE(fabric.ExecuteBatch(&ctx, node, &ops).IsInvalidArgument());
}

// A doorbell batch is all-or-nothing: a member out of bounds refuses the
// whole batch before any member's bytes land, and nothing is charged.
TEST(MemoryRegionTest, RefusedWriteBatchWritesNothing) {
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("mem", NodeKind::kMemory, InterconnectModel::Rdma());
  MemoryRegion* region = fabric.node(node)->AddRegion("small", 64);
  const char a[4] = {'A', 'A', 'A', 'A'};
  std::vector<Fabric::WriteOp> batch = {{{region->id(), 0}, a, 4},
                                        {{region->id(), 100}, a, 4}};
  NetContext ctx;
  EXPECT_TRUE(fabric.WriteBatch(&ctx, node, batch).IsInvalidArgument());
  EXPECT_EQ(region->data()[0], 0);
  EXPECT_EQ(ctx.sim_ns, 0u);
}

TEST(InterconnectTest, LatencyOrderingMatchesPaper) {
  // Sec. 3.3: local < CXL < RDMA; storage media slower still.
  const auto local = InterconnectModel::LocalDram();
  const auto cxl = InterconnectModel::Cxl();
  const auto rdma = InterconnectModel::Rdma();
  const auto ssd = InterconnectModel::Ssd();
  const auto obj = InterconnectModel::ObjectStore();
  EXPECT_LT(local.read_base_ns, cxl.read_base_ns);
  EXPECT_LT(cxl.read_base_ns, rdma.read_base_ns);
  EXPECT_LT(rdma.read_base_ns, ssd.read_base_ns);
  EXPECT_LT(ssd.read_base_ns, obj.read_base_ns);
  // DirectCXL reports ~6.2x improvement over RDMA.
  const double ratio = static_cast<double>(rdma.read_base_ns) /
                       static_cast<double>(cxl.read_base_ns);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 9.0);
}

TEST(InterconnectTest, AvailabilityZonesRecorded) {
  Fabric fabric;
  const NodeId a = fabric.AddNode("s1", NodeKind::kStorage,
                                  InterconnectModel::Ssd(), /*az=*/1);
  const NodeId b = fabric.AddNode("s2", NodeKind::kStorage,
                                  InterconnectModel::Ssd(), /*az=*/2);
  EXPECT_EQ(fabric.node(a)->az(), 1u);
  EXPECT_EQ(fabric.node(b)->az(), 2u);
  EXPECT_EQ(fabric.num_nodes(), 3u);  // includes the null node slot
}

}  // namespace
}  // namespace disagg
