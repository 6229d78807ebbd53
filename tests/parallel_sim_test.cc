#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "memnode/executor.h"
#include "net/congestion.h"
#include "net/fabric.h"
#include "net/interceptors.h"
#include "rindex/remote_btree.h"
#include "sim/driver_internal.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

// The cross-thread determinism suite pinning the epoch-parallel driver's
// contract (src/sim/load_driver.h `ParallelConfig`):
//   1. `threads` never reaches a result bit — same seed, same partitions,
//      any thread count {1, 2, 8}: bit-identical counters AND trace, for
//      both loop disciplines, with the full stack enabled (congestion +
//      WFQ + admission control + breakers + retry + tag-keyed faults).
//   2. `partitions == 1` reproduces the global virtual-time order bit for
//      bit: a test-only reference loop (`ReferenceClosedLoop` and
//      `ReferenceOpenLoop` below) is the oracle.
//   3. Equal virtual timestamps order deterministically by (client id,
//      op seq) — pinned by a deliberately engineered timestamp collision.
//   4. `partitions > 1` conserves work: authoritative resource accounting
//      equals the one-partition run's even though the interleaving differs.

/// Every counter `NetContext` sums, the per-verb breakdown included: the
/// open-loop driver folds op traffic per partition rather than per client,
/// so each counter is pinned, not just the aggregate traffic fields.
std::vector<uint64_t> Counters(const NetContext& c) {
  std::vector<uint64_t> v = {c.sim_ns,
                             c.bytes_out,
                             c.bytes_in,
                             c.round_trips,
                             c.rpcs,
                             c.retries,
                             c.backoff_ns,
                             c.faults_injected,
                             c.queue_ns,
                             c.admission_rejects,
                             c.deadline_misses,
                             c.hedges,
                             c.hedge_wins,
                             c.breaker_fast_fails,
                             c.degraded_ops,
                             c.staleness_lsn};
  for (const VerbCounters& pv : c.per_verb) {
    v.insert(v.end(), {pv.ops, pv.sim_ns, pv.bytes_out, pv.bytes_in});
  }
  return v;
}

/// Everything a LoadReport exposes, flattened for tuple comparison. The
/// trace rides along separately (vector<OpTrace> has operator==).
auto Flatten(const sim::LoadReport& r) {
  return std::make_tuple(
      r.clients, r.ops, r.errors, r.busy, r.makespan_ns, Counters(r.total),
      r.per_client_sim_ns, r.latency.count(), r.latency.min(),
      r.latency.max(), r.latency.Percentile(50), r.latency.Percentile(99),
      r.offered_ops_per_sec, r.max_in_flight, r.queue_depth.count(),
      r.queue_depth.max(), r.queue_depth.Mean());
}

/// The adversarial rig: three congested memory nodes behind a shared
/// backbone, WFQ across three tenants, bounded backlogs (admission
/// rejections), hedged reads to a mirror node, per-op deadlines for one
/// tenant, a per-node circuit breaker, retries, and a tag-keyed fault
/// schedule with a virtual-time flap. Every order-sensitive shared-state
/// path the epoch-parallel driver must exchange deterministically is live.
struct FullStackRig {
  Fabric fabric;
  std::vector<NodeId> nodes;
  std::vector<MemoryRegion*> regions;

  FullStackRig() {
    for (int i = 0; i < 3; i++) {
      NodeId n = fabric.AddNode("mem" + std::to_string(i), NodeKind::kMemory,
                                InterconnectModel::Rdma());
      nodes.push_back(n);
      regions.push_back(fabric.node(n)->AddRegion("heap", 1 << 20));
    }

    CongestionConfig cfg;
    cfg.default_node = ResourceCapacity{800, 0.05, 400'000};
    cfg.backbone = ResourceCapacity{150, 0.01, 2'000'000};
    cfg.tenant_weights = {{0, 4.0}, {1, 2.0}, {2, 1.0}};
    fabric.EnableCongestion(cfg);

    HedgePolicy hedge;
    hedge.hedge_delay_ns = 20'000;
    hedge.replicas = {{nodes[0], nodes[1]}, {nodes[1], nodes[2]},
                      {nodes[2], nodes[0]}};
    fabric.AddInterceptor(std::make_shared<HedgeInterceptor>(hedge));

    RetryPolicy retry;
    retry.max_attempts = 3;
    fabric.AddInterceptor(std::make_shared<RetryInterceptor>(retry));

    BreakerPolicy breaker;
    breaker.window = 8;
    breaker.min_samples = 4;
    breaker.open_error_rate = 0.5;
    breaker.open_ops = 16;
    fabric.AddInterceptor(std::make_shared<CircuitBreakerInterceptor>(breaker));

    FaultPolicy faults;
    faults.seed = 99;
    faults.drop_prob = 0.02;
    faults.spike_prob = 0.05;
    faults.key_by_op_tag = true;  // required under the parallel driver
    faults.flaps.push_back(
        FaultPolicy::Flap{nodes[1], 0, 0, 300'000, 900'000});
    fabric.AddInterceptor(std::make_shared<FaultInterceptor>(faults));
  }

  sim::ClientOpFn Op() {
    return [this](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
      ctx->tenant = static_cast<uint32_t>(client % 3);
      if (ctx->tenant == 2) ctx->deadline_ns = ctx->sim_ns + 25'000;
      char buf[2048];
      const size_t n = size_t{16} << rng->Uniform(7);  // 16..1024 bytes
      const uint64_t pick = rng->Uniform(3);
      GlobalAddr addr{nodes[pick], regions[pick]->id(),
                      rng->Uniform(64) * 2048};
      return fabric.Read(ctx, addr, buf, n);
    };
  }
};

/// Oracle: the global virtual-time order with no epochs, effect shards,
/// controller or membership. One heap of (clock, client) over all clients,
/// lower client first at equal clocks; pop the minimum, run the op, push the
/// client's next event. Seeds, arrival streams and op tags come from
/// driver_internal.h, so this pins the schedule, not the formulas.
using Event = std::pair<uint64_t, uint64_t>;  // (virtual clock, client)
using EventHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

void Account(sim::LoadReport* r, const sim::LoadReport::OpTrace& t,
             const Status& st) {
  r->ops++;
  if (!st.ok()) r->errors++;
  if (st.IsBusy()) r->busy++;
  r->latency.Record(t.done_ns - t.arrival_ns);
  r->trace.push_back(t);
}

sim::LoadReport ReferenceClosedLoop(const sim::LoadOptions& opts,
                                    const sim::ClientOpFn& op) {
  sim::LoadReport r;
  r.clients = opts.clients;
  std::vector<NetContext> ctxs(opts.clients);
  std::vector<Random> rngs;
  std::vector<uint64_t> issued(opts.clients, 0);
  EventHeap ready;
  for (uint64_t c = 0; c < opts.clients; c++) {
    rngs.emplace_back(sim::internal::ClientSeed(opts.seed, c));
    ready.push({0, c});
  }
  while (!ready.empty()) {
    const auto [at, c] = ready.top();
    ready.pop();
    NetContext* ctx = &ctxs[c];
    ctx->op_tag = sim::internal::OpTag(c, issued[c]);
    const Status st = op(c, issued[c], ctx, &rngs[c]);
    Account(&r, {at, ctx->sim_ns, c, issued[c], st.code()}, st);
    ctx->Charge(opts.think_ns);
    if (++issued[c] < opts.ops_per_client) ready.push({ctx->sim_ns, c});
  }
  for (const NetContext& ctx : ctxs) r.per_client_sim_ns.push_back(ctx.sim_ns);
  MergeParallel(&r.total, ctxs.data(), ctxs.size());
  r.makespan_ns = r.total.sim_ns;
  return r;
}

sim::LoadReport ReferenceOpenLoop(const sim::OpenLoopOptions& opts,
                                  const sim::ClientOpFn& op) {
  sim::LoadReport r;
  r.clients = opts.clients;
  r.offered_ops_per_sec = opts.ops_per_sec * static_cast<double>(opts.clients);
  r.per_client_sim_ns.assign(opts.clients, 0);
  const double period_ns = 1e9 / opts.ops_per_sec;
  std::vector<Random> rngs;
  std::vector<Random> arrival_rngs;
  std::vector<uint64_t> issued(opts.clients, 0);
  EventHeap arrivals;
  for (uint64_t c = 0; c < opts.clients; c++) {
    rngs.emplace_back(sim::internal::ClientSeed(opts.seed, c));
    arrival_rngs.emplace_back(sim::internal::ClientSeed(opts.seed, c) ^
                              sim::internal::kArrivalSalt);
    arrivals.push({sim::internal::FirstArrivalNs(opts, period_ns, c,
                                                 &arrival_rngs.back()),
                   c});
  }
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>
      completions;  // of the ops in flight
  while (!arrivals.empty()) {
    const auto [at, c] = arrivals.top();
    arrivals.pop();
    NetContext ctx;
    ctx.sim_ns = at;
    ctx.op_tag = sim::internal::OpTag(c, issued[c]);
    const Status st = op(c, issued[c], &ctx, &rngs[c]);
    Account(&r, {at, ctx.sim_ns, c, issued[c], st.code()}, st);
    AccumulateTraffic(&r.total, ctx);
    r.per_client_sim_ns[c] = std::max(r.per_client_sim_ns[c], ctx.sim_ns);
    r.makespan_ns = std::max(r.makespan_ns, ctx.sim_ns);
    while (!completions.empty() && completions.top() <= at) completions.pop();
    completions.push(ctx.sim_ns);
    r.queue_depth.Record(completions.size());
    r.max_in_flight = std::max<uint64_t>(r.max_in_flight, completions.size());
    if (++issued[c] < opts.ops_per_client) {
      arrivals.push(
          {at + sim::internal::NextGapNs(opts, period_ns, &arrival_rngs[c]),
           c});
    }
  }
  r.total.sim_ns = r.makespan_ns;
  return r;
}

using ClosedDriver = sim::LoadReport (*)(const sim::LoadOptions&,
                                         const sim::ClientOpFn&);
using OpenDriver = sim::LoadReport (*)(const sim::OpenLoopOptions&,
                                       const sim::ClientOpFn&);

sim::LoadReport RunClosed(uint64_t seed, uint32_t partitions,
                          uint32_t threads,
                          ClosedDriver driver = &sim::RunClosedLoop) {
  FullStackRig rig;
  sim::LoadOptions opts;
  opts.clients = 24;
  opts.ops_per_client = 50;
  opts.seed = seed;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  return driver(opts, rig.Op());
}

sim::LoadReport RunOpen(uint64_t seed, uint32_t partitions, uint32_t threads,
                        OpenDriver driver = &sim::RunOpenLoop) {
  FullStackRig rig;
  sim::OpenLoopOptions opts;
  opts.clients = 24;
  opts.ops_per_client = 50;
  opts.ops_per_sec = 40'000;  // aggregate ~1M ops/s: real contention
  opts.seed = seed;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  return driver(opts, rig.Op());
}

/// The rig really drives the robustness counters `Counters` pins.
void ExpectStackExercised(const sim::LoadReport& r) {
  EXPECT_GT(r.total.retries, 0u);
  EXPECT_GT(r.total.faults_injected, 0u);
  EXPECT_GT(r.total.hedges, 0u);
  EXPECT_GT(r.total.hedge_wins, 0u);
  EXPECT_GT(r.total.breaker_fast_fails, 0u);
  EXPECT_GT(r.total.deadline_misses, 0u);
}

TEST(ParallelSimTest, ClosedLoopBitIdenticalAcrossThreadCounts) {
  const auto t1 = RunClosed(42, 8, 1);
  const auto t2 = RunClosed(42, 8, 2);
  const auto t8 = RunClosed(42, 8, 8);
  ASSERT_EQ(t1.ops, 24u * 50u);
  ASSERT_GT(t1.epochs, 1u);  // the run actually crossed barriers
  ExpectStackExercised(t1);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
  // ...and the function still depends on the seed.
  EXPECT_NE(Flatten(t1), Flatten(RunClosed(43, 8, 8)));
}

TEST(ParallelSimTest, OpenLoopBitIdenticalAcrossThreadCounts) {
  const auto t1 = RunOpen(42, 8, 1);
  const auto t2 = RunOpen(42, 8, 2);
  const auto t8 = RunOpen(42, 8, 8);
  ASSERT_EQ(t1.ops, 24u * 50u);
  ASSERT_GT(t1.epochs, 1u);
  ExpectStackExercised(t1);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
  EXPECT_NE(Flatten(t1), Flatten(RunOpen(43, 8, 8)));
}

TEST(ParallelSimTest, SinglePartitionReproducesSerialDriverExactly) {
  // partitions == 1 is the global-order schedule run through the epoch
  // machinery (shard copy + replay, epoch barriers): the contract says that
  // round trip is invisible, bit for bit — full stack enabled.
  const auto ref_closed = RunClosed(42, 1, 1, &ReferenceClosedLoop);
  for (uint32_t threads : {1u, 2u, 8u}) {
    const auto epoch = RunClosed(42, 1, threads);
    EXPECT_EQ(Flatten(ref_closed), Flatten(epoch)) << threads;
    EXPECT_EQ(ref_closed.trace, epoch.trace) << threads;
  }

  const auto ref_open = RunOpen(42, 1, 1, &ReferenceOpenLoop);
  for (uint32_t threads : {1u, 2u, 8u}) {
    const auto epoch = RunOpen(42, 1, threads);
    EXPECT_EQ(Flatten(ref_open), Flatten(epoch)) << threads;
    EXPECT_EQ(ref_open.trace, epoch.trace) << threads;
  }
}

TEST(ParallelSimTest, PartitionCountIsDeterministicButPartOfTheFunction) {
  // Different partition counts are different (equally deterministic)
  // schedules: each reproduces itself exactly; ops issued never changes.
  for (uint32_t partitions : {2u, 4u, 8u}) {
    const auto a = RunClosed(42, partitions, 8);
    const auto b = RunClosed(42, partitions, 2);
    EXPECT_EQ(Flatten(a), Flatten(b)) << partitions;
    EXPECT_EQ(a.trace, b.trace) << partitions;
    EXPECT_EQ(a.ops, 24u * 50u) << partitions;
    EXPECT_EQ(a.latency.count(), 24u * 50u) << partitions;
  }
}

TEST(ParallelSimTest, EqualTimestampsOrderByClientThenOpSeq) {
  // Engineer a collision: every client starts at t=0 with a fixed-cost op,
  // so every epoch boundary has several clients tied at the same virtual
  // instant. The pinned tie-break is (client id, then per-client op seq):
  // the default one-partition order must be round-robin by client id, and
  // the canonical trace must be identical at any partition/thread count.
  constexpr uint64_t kCost = 500;
  constexpr uint64_t kClients = 6;
  constexpr uint64_t kOps = 8;
  auto fixed = [](uint64_t, uint64_t, NetContext* ctx, Random*) {
    ctx->Charge(kCost);
    return Status::OK();
  };

  sim::LoadOptions opts;
  opts.clients = kClients;
  opts.ops_per_client = kOps;
  opts.parallel.record_trace = true;
  const auto p1 = sim::RunClosedLoop(opts, fixed);
  ASSERT_EQ(p1.trace.size(), kClients * kOps);
  for (uint64_t i = 0; i < p1.trace.size(); i++) {
    // Round k of the round-robin: client i%6 issuing its (i/6)-th op at
    // virtual time k*kCost. Any other order fails here.
    EXPECT_EQ(p1.trace[i].arrival_ns, (i / kClients) * kCost) << i;
    EXPECT_EQ(p1.trace[i].client, i % kClients) << i;
    EXPECT_EQ(p1.trace[i].op_index, i / kClients) << i;
  }

  for (uint32_t partitions : {1u, 2u, 4u}) {
    for (uint32_t threads : {1u, 4u}) {
      opts.parallel.partitions = partitions;
      opts.parallel.threads = threads;
      const auto par = sim::RunClosedLoop(opts, fixed);
      EXPECT_EQ(p1.trace, par.trace) << partitions << "x" << threads;
    }
  }
}

TEST(ParallelSimTest, ContendedPartitionsConserveAuthoritativeAccounting) {
  // The epoch exchange must conserve work: after a P=2 run over a shared
  // congested node, the authoritative resource accounting (ops serviced,
  // bytes, busy time) equals the one-partition run's exactly — the
  // interleaving differs, the physics doesn't.
  auto run = [](uint32_t partitions) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{1200, 0.1};
    fabric.EnableCongestion(cfg);

    sim::LoadOptions opts;
    opts.clients = 10;
    opts.ops_per_client = 40;
    opts.parallel.partitions = partitions;
    opts.parallel.threads = 4;
    sim::RunClosedLoop(opts, [&](uint64_t, uint64_t, NetContext* ctx,
                                 Random* rng) {
      char buf[1024];
      GlobalAddr addr{node, region->id(), rng->Uniform(64) * 1024};
      return fabric.Read(ctx, addr, buf, size_t{8} << rng->Uniform(7));
    });
    return fabric.congestion()->NodeStats(node);
  };

  const auto whole = run(1);
  const auto sharded = run(2);
  EXPECT_EQ(whole.ops, sharded.ops);
  EXPECT_EQ(whole.bytes, sharded.bytes);
  EXPECT_EQ(whole.busy_ns, sharded.busy_ns);
}

TEST(ParallelSimTest, RecordTraceToggleDoesNotChangeCounters) {
  auto run = [](bool record) {
    FullStackRig rig;
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 30;
    opts.seed = 42;
    opts.parallel.partitions = 4;
    opts.parallel.threads = 4;
    opts.parallel.record_trace = record;
    return sim::RunClosedLoop(opts, rig.Op());
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(Flatten(with), Flatten(without));
  EXPECT_EQ(with.trace.size(), 12u * 30u);
  EXPECT_TRUE(without.trace.empty());
}

TEST(ParallelSimTest, BatchedWorkloadStaysBitIdenticalAcrossThreadCounts) {
  // Op batching (Fabric::ExecuteBatch) under the parallel driver: the
  // coalesced descriptor goes through the same congestion/fault stack, so
  // the thread-invariance contract must hold for batched workloads too.
  auto run = [](uint32_t threads) {
    FullStackRig rig;
    rig.fabric.EnableOpBatching(true);
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 30;
    opts.seed = 42;
    opts.parallel.partitions = 4;
    opts.parallel.threads = threads;
    opts.parallel.record_trace = true;
    return sim::RunClosedLoop(
        opts, [&rig](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
          ctx->tenant = static_cast<uint32_t>(client % 3);
          char buf[4][256];
          const uint64_t pick = rng->Uniform(3);
          std::vector<Fabric::BatchOp> batch(4);
          for (int i = 0; i < 4; i++) {
            batch[i].verb = FabricVerb::kRead;
            batch[i].addr = RemoteAddr{rig.regions[pick]->id(),
                                       rng->Uniform(64) * 2048};
            batch[i].dst = buf[i];
            batch[i].n = size_t{16} << rng->Uniform(5);
          }
          return rig.fabric.ExecuteBatch(ctx, rig.nodes[pick], &batch);
        });
  };
  const auto t1 = run(1);
  const auto t2 = run(2);
  const auto t8 = run(8);
  ASSERT_EQ(t1.ops, 12u * 30u);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
}

// Offloaded concurrency under the epoch-parallel driver: every op crosses
// the fabric into the memory-node executor (one `exec.lock.acquire` RPC,
// one `exec.idx.get` RPC) on a congested pool node. Per-client lock keys
// are disjoint, so lock-table mutations commute and the thread-invariance
// contract must hold over the offloaded lock path bit for bit: threads
// {1, 2, 8} at P=4, and partitions=1 reproducing the reference loop.
struct OffloadLockRig {
  Fabric fabric;
  MemoryNode pool{&fabric, "pool", 1 << 22};
  MemNodeExecutor exec{&fabric, &pool};
  OffloadedLockClient locks{&fabric, pool.node()};
  uint32_t tree = 0;

  OffloadLockRig() {
    NetContext setup;
    auto ref = RemoteBTree::Create(&setup, &fabric, &pool);
    EXPECT_TRUE(ref.ok());
    tree = exec.RegisterTree(*ref);
    for (uint64_t k = 1; k <= 256; k++) {
      EXPECT_TRUE(
          OffloadIndexPut(&fabric, &setup, pool.node(), tree, k * 3, k).ok());
    }
    CongestionConfig cfg;
    cfg.node_caps[pool.node()] = ResourceCapacity{900, 0.05};
    fabric.EnableCongestion(cfg);
  }

  sim::ClientOpFn Op() {
    return [this](uint64_t client, uint64_t op, NetContext* ctx, Random* rng) {
      // One txn per 4-op window, holding up to 4 disjoint keys; the window's
      // last op releases them all, so a clean run ends with an empty table.
      const TxnId txn = client * 1'000'000 + op / 4 + 1;
      const uint64_t key = client * 64 + op % 4;
      const Status st = locks.AcquireLock(ctx, txn, key, LockMode::kExclusive);
      if (!st.ok()) return st;
      // A seeded scan window: the reply size depends on the drawn limit, so
      // the report is a function of the seed (pinned below), not just of
      // the op count.
      const auto got =
          OffloadIndexScan(&fabric, ctx, pool.node(), tree,
                           (1 + rng->Uniform(240)) * 3, 1 + rng->Uniform(8));
      if (op % 4 == 3) locks.ReleaseAllLocks(ctx, txn);
      return got.status();
    };
  }
};

sim::LoadReport RunOffloadLocks(uint64_t seed, uint32_t partitions,
                                uint32_t threads,
                                MemNodeExecutor::Stats* stats = nullptr,
                                size_t* leftover = nullptr,
                                ClosedDriver driver = &sim::RunClosedLoop) {
  OffloadLockRig rig;
  sim::LoadOptions opts;
  opts.clients = 12;
  opts.ops_per_client = 40;
  opts.seed = seed;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  auto report = driver(opts, rig.Op());
  if (stats != nullptr) *stats = rig.exec.stats();
  if (leftover != nullptr) {
    *leftover = rig.exec.active_locks() + rig.locks.pending_releases();
  }
  return report;
}

TEST(ParallelSimTest, OffloadedLockPathBitIdenticalAcrossThreadCounts) {
  MemNodeExecutor::Stats s1;
  size_t leftover = 1;
  const auto t1 = RunOffloadLocks(42, 4, 1, &s1, &leftover);
  ASSERT_EQ(t1.ops, 12u * 40u);
  ASSERT_EQ(t1.errors, 0u);
  EXPECT_GT(s1.grants, 0u);       // the lock RPCs really ran
  EXPECT_GT(s1.scans, 0u);        // ...and so did the traversal RPCs
  EXPECT_EQ(s1.conflicts, 0u);    // disjoint keys: contention-free by design
  EXPECT_EQ(leftover, 0u);        // every txn released; nothing piggybacked

  const auto t2 = RunOffloadLocks(42, 4, 2);
  const auto t8 = RunOffloadLocks(42, 4, 8);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);

  // partitions == 1 reproduces the reference loop bit for bit, lock and
  // traversal RPCs included.
  const auto ref =
      RunOffloadLocks(42, 1, 1, nullptr, nullptr, &ReferenceClosedLoop);
  for (uint32_t threads : {1u, 2u, 8u}) {
    const auto epoch = RunOffloadLocks(42, 1, threads);
    EXPECT_EQ(Flatten(ref), Flatten(epoch)) << threads;
    EXPECT_EQ(ref.trace, epoch.trace) << threads;
  }

  EXPECT_NE(Flatten(t1), Flatten(RunOffloadLocks(43, 4, 8)));
}

TEST(ParallelSimTest, EpochWidthIsPartOfTheFunctionAndReproducible) {
  // epoch_ns is config, not tuning: each width reproduces itself exactly
  // at any thread count, and ops issued is invariant across widths.
  for (uint64_t epoch_ns : {20'000ull, 100'000ull, 1'000'000ull}) {
    FullStackRig rig_a;
    FullStackRig rig_b;
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 25;
    opts.seed = 42;
    opts.parallel.partitions = 4;
    opts.parallel.epoch_ns = epoch_ns;
    opts.parallel.record_trace = true;
    opts.parallel.threads = 1;
    const auto a = sim::RunClosedLoop(opts, rig_a.Op());
    opts.parallel.threads = 8;
    const auto b = sim::RunClosedLoop(opts, rig_b.Op());
    EXPECT_EQ(Flatten(a), Flatten(b)) << epoch_ns;
    EXPECT_EQ(a.trace, b.trace) << epoch_ns;
    EXPECT_EQ(a.ops, 12u * 25u) << epoch_ns;
  }
}

TEST(ParallelSimTest, KWayMergeEqualsConcatenateAndSort) {
  // Randomized per-partition runs built the way the driver builds them:
  // each partition pops (arrival, client) from a heap holding one entry per
  // client and reschedules the client at arrival + gap. Gaps are often 0
  // (NextGapNs can return 0) and arrivals sit on a coarse grid, so equal
  // arrival times collide within a client, within a partition and across
  // partitions. Client counts below P leave some runs empty.
  using Trace = sim::LoadReport::OpTrace;
  using Event = std::pair<uint64_t, uint64_t>;  // (arrival, client)
  Random rng(7);
  for (int trial = 0; trial < 300; trial++) {
    const uint32_t P = 1 + static_cast<uint32_t>(rng.Uniform(9));
    const uint64_t clients = rng.Uniform(40);
    const uint64_t ops = 1 + rng.Uniform(6);
    std::vector<std::vector<Trace>> runs(P);
    for (uint32_t p = 0; p < P; p++) {
      std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
      std::vector<uint64_t> issued(clients, 0);
      for (uint64_t c = p; c < clients; c += P) {
        heap.push({rng.Uniform(4) * 100, c});
      }
      while (!heap.empty()) {
        const auto [at, c] = heap.top();
        heap.pop();
        runs[p].push_back(
            Trace{at, at + rng.Uniform(500), c, issued[c], Status::Code::kOk});
        if (++issued[c] < ops) {
          heap.push({at + (rng.Bernoulli(0.4) ? 0 : rng.Uniform(3) * 100), c});
        }
      }
    }

    std::vector<Trace> expected;
    std::vector<sim::internal::TraceRun> views;
    for (const std::vector<Trace>& run : runs) {
      expected.insert(expected.end(), run.begin(), run.end());
      views.push_back({run.data(), run.data() + run.size()});
    }
    std::sort(expected.begin(), expected.end(), sim::internal::TraceLess);
    std::vector<Trace> merged;
    sim::internal::MergeTraceRuns(
        views, [&merged](const Trace& t) { merged.push_back(t); });
    ASSERT_EQ(merged, expected) << "trial " << trial;
  }
}

TEST(ParallelSimTest, PoolShapesMatchOneThreadBitForBit) {
  // More workers than partitions (8 for 3), threads = 0, more partitions
  // than clients (64 for 24, which clamps to 24), and partitions = 0 (taken
  // as 1): each shape must reproduce the threads=1 run of the same
  // effective partition count, epoch count included.
  struct Shape {
    uint32_t partitions;
    uint32_t threads;
    uint32_t reference_partitions;
  };
  for (const Shape sh : {Shape{3, 8, 3}, Shape{3, 0, 3}, Shape{8, 0, 8},
                         Shape{64, 8, 24}, Shape{64, 1, 24}, Shape{0, 8, 1}}) {
    const auto closed = RunClosed(42, sh.partitions, sh.threads);
    const auto closed_ref = RunClosed(42, sh.reference_partitions, 1);
    EXPECT_EQ(Flatten(closed), Flatten(closed_ref)) << sh.partitions << "x"
                                                    << sh.threads;
    EXPECT_EQ(closed.trace, closed_ref.trace);
    EXPECT_EQ(closed.epochs, closed_ref.epochs);
    const auto open = RunOpen(42, sh.partitions, sh.threads);
    const auto open_ref = RunOpen(42, sh.reference_partitions, 1);
    EXPECT_EQ(Flatten(open), Flatten(open_ref)) << sh.partitions << "x"
                                                << sh.threads;
    EXPECT_EQ(open.trace, open_ref.trace);
    EXPECT_EQ(open.epochs, open_ref.epochs);
  }
}

TEST(ParallelSimTest, ParkedWorkersWakeAcrossLongEmptyStretches) {
  // Sparse arrivals (1 ms apart per client against 100 us epochs) leave
  // long stretches of empty epochs for the driver to skip, and clients 0
  // and 1 stall the host for 2 ms per op — far past the barrier's spin
  // bound — so helpers park waiting for the next epoch (client 0 runs on
  // the calling thread) and the caller parks waiting for a helper (client
  // 1 does not). Every parked side must be woken, the pool must shut down
  // cleanly, and the result must equal threads=1's bit for bit.
  auto run = [](uint32_t threads) {
    FullStackRig rig;
    sim::OpenLoopOptions opts;
    opts.clients = 6;
    opts.ops_per_client = 5;
    opts.ops_per_sec = 1'000;
    opts.process = sim::ArrivalProcess::kDeterministic;
    opts.seed = 42;
    opts.parallel.partitions = 3;
    opts.parallel.threads = threads;
    opts.parallel.record_trace = true;
    const sim::ClientOpFn op = rig.Op();
    return sim::RunOpenLoop(opts, [&op](uint64_t client, uint64_t index,
                                        NetContext* ctx, Random* rng) {
      if (client < 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return op(client, index, ctx, rng);
    });
  };
  const auto t1 = run(1);
  ASSERT_EQ(t1.ops, 6u * 5u);
  EXPECT_LT(t1.epochs, t1.makespan_ns / sim::kDefaultEpochNs);  // skipped
  for (uint32_t threads : {2u, 3u, 8u}) {
    const auto tn = run(threads);
    EXPECT_EQ(Flatten(t1), Flatten(tn)) << threads;
    EXPECT_EQ(t1.trace, tn.trace) << threads;
  }
}

}  // namespace
}  // namespace disagg
