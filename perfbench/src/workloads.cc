#include "workloads.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/random.h"
#include "memnode/memory_node.h"
#include "rindex/remote_btree.h"
#include "sim/engine_registry.h"

namespace perfbench {

using disagg::Fabric;
using disagg::MemoryNode;
using disagg::NetContext;
using disagg::Random;
using disagg::Status;
namespace sim = disagg::sim;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double RssMb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Per-op simulated latency and type, indexed by (client, op_index), so
/// worker threads write disjoint slots and no op is counted twice.
class OpLog {
 public:
  OpLog(uint64_t clients, uint64_t ops_per_client)
      : ops_per_client_(ops_per_client),
        ns_(clients * ops_per_client, 0),
        kind_(clients * ops_per_client, kUnset) {}

  void Record(uint64_t client, uint64_t op_index, bool write, uint64_t ns) {
    const size_t i = client * ops_per_client_ + op_index;
    ns_[i] = ns;
    kind_[i] = write ? kWrite : kRead;
  }

  /// Splits latencies by type; false if any op was never recorded.
  bool SplitInto(RepResult* r) const {
    for (size_t i = 0; i < ns_.size(); i++) {
      if (kind_[i] == kUnset) return false;
      (kind_[i] == kWrite ? r->write_ns : r->read_ns).push_back(ns_[i]);
    }
    return true;
  }

 private:
  static constexpr uint8_t kUnset = 0, kRead = 1, kWrite = 2;
  uint64_t ops_per_client_;
  std::vector<uint64_t> ns_;
  std::vector<uint8_t> kind_;
};

/// Wraps an op body for the driver: on a traced run each op gets a kOp span
/// (child of the run span) stamped with its op id; otherwise the body runs
/// bare.
sim::ClientOpFn WrapOp(Tracer* tracer, SpanId run_span, sim::ClientOpFn body) {
  if (tracer == nullptr) return body;
  return [tracer, run_span, body = std::move(body)](
             uint64_t client, uint64_t op_index, NetContext* ctx,
             Random* rng) {
    tracer->SetOp(client, op_index);
    Scope op(tracer, SpanKind::kOp, ctx, run_span);
    return body(client, op_index, ctx, rng);
  };
}

/// Times `drive(run_span)` (one RunClosedLoop/RunOpenLoop call) as the
/// measured phase, with the fabric timer installed when `r` is traced.
template <typename Drive>
void Measure(RepResult* r, Fabric* fabric, Drive drive) {
  const bool traced = r->tracer != nullptr;
  if (traced) {
    fabric->AddInterceptor(std::make_shared<FabricTimer>(r->tracer.get()));
  }
  const Clock::time_point t0 = Clock::now();
  {
    Scope run(r->tracer.get(), SpanKind::kRun, nullptr);
    r->report = drive(run.id());
  }
  r->run_s = SecondsSince(t0);
  if (traced) {
    fabric->ClearInterceptors();
    for (size_t id = 0; id < fabric->num_nodes(); id++) {
      // Id 0 is the fabric's null node; no op targets it.
      const disagg::Node* n = fabric->node(static_cast<disagg::NodeId>(id));
      r->node_kinds.push_back(n != nullptr ? n->kind()
                                           : disagg::NodeKind::kCompute);
    }
  }
}

void CheckOpCount(RepResult* r) {
  if (r->report.ops != r->expected_ops && r->check_error.empty()) {
    r->check_error = "ops attempted " + std::to_string(r->report.ops) +
                     " != clients x ops_per_client " +
                     std::to_string(r->expected_ops);
  }
}

// ------------------------------------------------------------ oltp-aurora
//
// Aurora (quorum WAL, the log is the database) under YCSB-A: 50% GetRow,
// 50% Begin/Update/Commit transactions, zipf 0.99 over preloaded 96-byte
// rows, 16 closed-loop clients, no congestion model. RowEngine is not
// thread-safe, so partitions=1 and threads=1 (bit-identical to the serial
// driver).

constexpr size_t kRowBytes = 96;

std::string RowImage(uint64_t key, uint64_t writer, uint64_t op_index) {
  std::string row(kRowBytes, static_cast<char>('a' + key % 26));
  const int n = std::snprintf(row.data(), row.size(), "k%llu w%llu o%llu|",
                              static_cast<unsigned long long>(key),
                              static_cast<unsigned long long>(writer),
                              static_cast<unsigned long long>(op_index));
  row[static_cast<size_t>(n)] = '|';  // overwrite snprintf's terminator
  return row;
}

RepResult RunOltpAurora(const WorkloadConfig& cfg, bool traced) {
  const uint64_t rows = cfg.small ? 500 : 20'000;
  const uint64_t clients = cfg.small ? 4 : 16;
  const uint64_t ops_per_client = cfg.small ? 50 : 1'500;
  constexpr uint64_t kPreloadWriter = ~0ull;

  RepResult r;
  r.expected_ops = clients * ops_per_client;
  const Clock::time_point t0 = Clock::now();
  Fabric fabric;
  auto engine = sim::MakeRowEngine("aurora", &fabric);
  if (engine == nullptr) {
    r.check_error = "MakeRowEngine(\"aurora\") returned null";
    return r;
  }
  // Shadow of the last committed row per key, checked after the run.
  std::vector<std::string> shadow(rows);
  {
    const Clock::time_point load0 = Clock::now();
    NetContext setup;
    for (uint64_t k = 0; k < rows; k++) {
      shadow[k] = RowImage(k, kPreloadWriter, 0);
      Status st = engine->Put(&setup, k, shadow[k]);
      if (!st.ok()) {
        r.check_error = "preload Put: " + st.ToString();
        return r;
      }
    }
    r.layer["core.load_s"] = SecondsSince(load0);
  }
  disagg::ZipfianGenerator zipf(rows, 0.99, cfg.seed ^ 0x5bd1e995ull);
  OpLog log(clients, ops_per_client);
  const disagg::RowEngine::EngineStats before = engine->stats();
  r.setup_s = SecondsSince(t0);

  if (traced) r.tracer = std::make_unique<Tracer>();
  Tracer* const tracer = r.tracer.get();
  Measure(&r, &fabric, [&](SpanId run_span) {
    sim::LoadOptions opts;
    opts.clients = clients;
    opts.ops_per_client = ops_per_client;
    opts.seed = cfg.seed;
    opts.parallel.partitions = 1;
    opts.parallel.threads = 1;
    return sim::RunClosedLoop(
        opts, WrapOp(tracer, run_span,
                     [&](uint64_t client, uint64_t op_index, NetContext* ctx,
                         Random* rng) -> Status {
                       const uint64_t start = ctx->sim_ns;
                       const uint64_t key = zipf.Next();
                       const bool write = rng->Bernoulli(0.5);
                       Status st;
                       if (!write) {
                         Scope s(tracer, SpanKind::kCoreGet, ctx);
                         st = engine->GetRow(ctx, key).status();
                       } else {
                         std::string row = RowImage(key, client, op_index);
                         const disagg::TxnId txn = engine->Begin();
                         {
                           Scope s(tracer, SpanKind::kCoreUpdate, ctx);
                           st = engine->Update(ctx, txn, key, row);
                         }
                         if (st.ok()) {
                           Scope s(tracer, SpanKind::kTxnCommit, ctx);
                           st = engine->Commit(ctx, txn);
                         } else {
                           (void)engine->Abort(ctx, txn);
                         }
                         if (st.ok()) shadow[key] = std::move(row);
                       }
                       log.Record(client, op_index, write,
                                  ctx->sim_ns - start);
                       return st;
                     }));
  });

  const disagg::RowEngine::EngineStats& after = engine->stats();
  r.layer["core.page_fetches"] =
      static_cast<double>(after.page_fetches - before.page_fetches);
  r.layer["core.aborts"] = static_cast<double>(after.aborts - before.aborts);
  CheckOpCount(&r);
  if (!log.SplitInto(&r) && r.check_error.empty()) {
    r.check_error = "an op was never recorded";
  }
  NetContext check;
  for (uint64_t k = 0; k < rows && r.check_error.empty(); k++) {
    auto got = engine->GetRowReadOnly(&check, k);
    if (!got.ok()) {
      r.check_error = "read-back of key " + std::to_string(k) + ": " +
                      got.status().ToString();
    } else if (*got != shadow[k]) {
      r.check_error = "key " + std::to_string(k) +
                      " does not hold its last committed row";
    }
  }
  return r;
}

// ------------------------------------------------------------ rindex-zipf
//
// One-sided Sherman B+tree held entirely in a 512 MiB memory node, 10^5
// preloaded keys, YCSB-B (95% Get / 5% Put) at zipf 0.99 from 16
// closed-loop clients, no congestion model, partitions=1 and threads=1
// (one shared tree handle).

RepResult RunRindexZipf(const WorkloadConfig& cfg, bool traced) {
  const uint64_t keys = cfg.small ? 2'000 : 100'000;
  const size_t pool_bytes = cfg.small ? (16u << 20) : (512u << 20);
  const uint64_t clients = cfg.small ? 4 : 16;
  const uint64_t ops_per_client = cfg.small ? 100 : 25'000;

  RepResult r;
  r.expected_ops = clients * ops_per_client;
  const Clock::time_point t0 = Clock::now();
  Fabric fabric;
  const double rss0 = RssMb();
  const Clock::time_point pool0 = Clock::now();
  MemoryNode pool(&fabric, "pool", pool_bytes);
  r.layer["memnode.pool_setup_s"] = SecondsSince(pool0);
  r.layer["memnode.pool_rss_mb"] = RssMb() - rss0;

  // Shadow of the last Put value per key (index = key - 1).
  std::vector<uint64_t> shadow(keys);
  std::unique_ptr<disagg::RemoteBTree> tree;
  {
    const Clock::time_point load0 = Clock::now();
    NetContext setup;
    auto ref = disagg::RemoteBTree::Create(&setup, &fabric, &pool);
    if (!ref.ok()) {
      r.check_error = "RemoteBTree::Create: " + ref.status().ToString();
      return r;
    }
    tree = std::make_unique<disagg::RemoteBTree>(
        &fabric, &pool, *ref, disagg::RemoteBTree::Options::Sherman());
    for (uint64_t k = 1; k <= keys; k++) {
      shadow[k - 1] = k;
      Status st = tree->Put(&setup, k, k);
      if (!st.ok()) {
        r.check_error = "preload Put: " + st.ToString();
        return r;
      }
    }
    r.layer["rindex.load_s"] = SecondsSince(load0);
  }
  disagg::ZipfianGenerator zipf(keys, 0.99, cfg.seed ^ 0x5bd1e995ull);
  OpLog log(clients, ops_per_client);
  const disagg::RemoteBTree::Stats before = tree->stats();
  r.setup_s = SecondsSince(t0);

  if (traced) r.tracer = std::make_unique<Tracer>();
  Tracer* const tracer = r.tracer.get();
  Measure(&r, &fabric, [&](SpanId run_span) {
    sim::LoadOptions opts;
    opts.clients = clients;
    opts.ops_per_client = ops_per_client;
    opts.seed = cfg.seed;
    opts.parallel.partitions = 1;
    opts.parallel.threads = 1;
    return sim::RunClosedLoop(
        opts, WrapOp(tracer, run_span,
                     [&](uint64_t client, uint64_t op_index, NetContext* ctx,
                         Random* rng) -> Status {
                       const uint64_t start = ctx->sim_ns;
                       const uint64_t key = 1 + zipf.Next();
                       const bool write = !rng->Bernoulli(0.95);
                       Status st;
                       if (!write) {
                         Scope s(tracer, SpanKind::kRindexGet, ctx);
                         st = tree->Get(ctx, key).status();
                       } else {
                         const uint64_t value = ((client + 1) << 32) | op_index;
                         {
                           Scope s(tracer, SpanKind::kRindexPut, ctx);
                           st = tree->Put(ctx, key, value);
                         }
                         if (st.ok()) shadow[key - 1] = value;
                       }
                       log.Record(client, op_index, write,
                                  ctx->sim_ns - start);
                       return st;
                     }));
  });

  // Retryable contention per attempt: optimistic re-reads and lock spins
  // over index calls plus those retries.
  const disagg::RemoteBTree::Stats& after = tree->stats();
  const double retries = static_cast<double>(
      (after.optimistic_retries - before.optimistic_retries) +
      (after.lock_waits - before.lock_waits));
  r.layer["rindex.busy_frac"] =
      retries / (static_cast<double>(r.report.ops) + retries);
  CheckOpCount(&r);
  if (!log.SplitInto(&r) && r.check_error.empty()) {
    r.check_error = "an op was never recorded";
  }
  NetContext check;
  for (uint64_t k = 1; k <= keys && r.check_error.empty(); k++) {
    auto got = tree->Get(&check, k);
    if (!got.ok()) {
      r.check_error = "Get of key " + std::to_string(k) + ": " +
                      got.status().ToString();
    } else if (*got != shadow[k - 1]) {
      r.check_error =
          "key " + std::to_string(k) + " does not hold its last Put";
    }
  }
  return r;
}

// ------------------------------------------------------------- fleet-open
//
// 10^5 Poisson open-loop clients, 80/20 read/write of 4 KiB pages spread
// uniformly over 4 RDMA pools of 32 MiB, congestion on at each pool's
// ServiceCapacity(100) and offered at 80% of aggregate capacity (below the
// knee: bounded backlog). partitions=8, threads=2: the only workload that
// exercises queueing or more than one driver thread.

constexpr uint64_t kPage = 4096;
constexpr uint64_t kPageMagic = 0x70657266'70616765ull;  // "perfpage"

struct PageHeader {
  uint64_t magic = 0;
  uint32_t pool = 0;
  uint32_t page = 0;
  uint64_t client = 0;  ///< last writer
  uint64_t op_index = 0;
};

RepResult RunFleetOpen(const WorkloadConfig& cfg, bool traced) {
  constexpr uint64_t kPools = 4;
  const uint64_t pool_bytes = cfg.small ? (1u << 20) : (32u << 20);
  const uint64_t pages = pool_bytes / kPage;
  const uint64_t clients = cfg.small ? 2'000 : 100'000;
  const uint64_t ops_per_client = 4;

  RepResult r;
  r.expected_ops = clients * ops_per_client;
  r.threads = cfg.threads != 0 ? cfg.threads : 2;
  const Clock::time_point t0 = Clock::now();
  Fabric fabric;
  std::vector<std::unique_ptr<MemoryNode>> pools;
  {
    const double rss0 = RssMb();
    const Clock::time_point pool0 = Clock::now();
    for (uint64_t i = 0; i < kPools; i++) {
      pools.push_back(std::make_unique<MemoryNode>(
          &fabric, "pool" + std::to_string(i), pool_bytes));
    }
    r.layer["memnode.pool_setup_s"] = SecondsSince(pool0);
    r.layer["memnode.pool_rss_mb"] = RssMb() - rss0;
  }
  // Stamp every page's self-identifying header before congestion is on.
  NetContext setup;
  for (uint64_t p = 0; p < kPools; p++) {
    for (uint64_t pg = 0; pg < pages; pg++) {
      PageHeader h{kPageMagic, static_cast<uint32_t>(p),
                   static_cast<uint32_t>(pg), ~0ull, 0};
      Status st = fabric.Write(&setup, pools[p]->at(pg * kPage), &h, sizeof h);
      if (!st.ok()) {
        r.check_error = "page header preload: " + st.ToString();
        return r;
      }
    }
  }
  disagg::CongestionConfig congestion;
  disagg::ResourceCapacity cap;
  for (const auto& pool : pools) {
    cap = pool->ServiceCapacity(/*ns_per_op=*/100);
    congestion.node_caps[pool->node()] = cap;
  }
  fabric.EnableCongestion(congestion);
  const double capacity = static_cast<double>(kPools) * cap.OpsPerSec(kPage);
  OpLog log(clients, ops_per_client);
  std::atomic<uint64_t> bad_pages{0};
  r.setup_s = SecondsSince(t0);

  if (traced) r.tracer = std::make_unique<Tracer>();
  Tracer* const tracer = r.tracer.get();
  Measure(&r, &fabric, [&](SpanId run_span) {
    sim::OpenLoopOptions opts;
    opts.clients = clients;
    opts.ops_per_client = ops_per_client;
    opts.ops_per_sec = 0.8 * capacity / static_cast<double>(clients);
    opts.seed = cfg.seed;
    opts.parallel.partitions = 8;
    opts.parallel.threads = r.threads;
    return sim::RunOpenLoop(
        opts, WrapOp(tracer, run_span,
                     [&](uint64_t client, uint64_t op_index, NetContext* ctx,
                         Random* rng) -> Status {
                       const uint64_t arrival = ctx->sim_ns;
                       const uint64_t p = rng->Uniform(kPools);
                       const uint64_t pg = rng->Uniform(pages);
                       const bool write = rng->Bernoulli(0.2);
                       const disagg::GlobalAddr addr =
                           pools[p]->at(pg * kPage);
                       thread_local char buf[kPage];
                       Status st;
                       if (write) {
                         PageHeader h{kPageMagic, static_cast<uint32_t>(p),
                                      static_cast<uint32_t>(pg), client,
                                      op_index};
                         std::memcpy(buf, &h, sizeof h);
                         st = fabric.Write(ctx, addr, buf, kPage);
                       } else {
                         st = fabric.Read(ctx, addr, buf, kPage);
                         PageHeader h;
                         std::memcpy(&h, buf, sizeof h);
                         if (st.ok() && (h.magic != kPageMagic || h.pool != p ||
                                         h.page != pg)) {
                           bad_pages.fetch_add(1, std::memory_order_relaxed);
                         }
                       }
                       log.Record(client, op_index, write,
                                  ctx->sim_ns - arrival);
                       return st;
                     }));
  });

  CheckOpCount(&r);
  if (!log.SplitInto(&r) && r.check_error.empty()) {
    r.check_error = "an op was never recorded";
  }
  if (bad_pages.load() != 0 && r.check_error.empty()) {
    r.check_error = std::to_string(bad_pages.load()) +
                    " page reads failed their header check";
  }
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"oltp-aurora", "rindex-zipf",
                                                  "fleet-open"};
  return kNames;
}

RepResult RunRep(const WorkloadConfig& cfg, bool traced) {
  if (cfg.name == "oltp-aurora") return RunOltpAurora(cfg, traced);
  if (cfg.name == "rindex-zipf") return RunRindexZipf(cfg, traced);
  if (cfg.name == "fleet-open") return RunFleetOpen(cfg, traced);
  RepResult r;
  r.check_error = "unknown workload: " + cfg.name;
  return r;
}

}  // namespace perfbench
