#include "sim/load_driver.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "net/membership.h"
#include "net/partition.h"
#include "net/slo_controller.h"
#include "sim/driver_internal.h"

namespace disagg {
namespace sim {

namespace {

using internal::ClientSeed;
using internal::OpTag;

/// Heap entry: the client's virtual clock, with the client id as a
/// deterministic tie-break (lower id goes first at equal times).
struct Runnable {
  uint64_t at_ns;
  uint64_t client;
  bool operator>(const Runnable& o) const {
    return at_ns != o.at_ns ? at_ns > o.at_ns : client > o.client;
  }
};

/// Epoch end for the epoch containing `at_ns` (epochs are half-open
/// [k*epoch_ns, (k+1)*epoch_ns) windows of virtual time).
uint64_t EpochEndFor(uint64_t at_ns, uint64_t epoch_ns) {
  return (at_ns / epoch_ns + 1) * epoch_ns;
}

/// Busy-wait iterations a barrier waiter spends before it parks on the
/// condvar. An epoch's work is tens of microseconds, so a waiter that spins
/// this long almost always sees the other side arrive without a futex
/// hand-off; a waiter that does not (an empty stretch, an oversubscribed
/// host) stops burning a core after some tens of microseconds.
constexpr uint32_t kSpinIterations = 1u << 12;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Persistent worker pool with a generation barrier: `Run()` executes
/// body(p) for every partition p and returns once all are done. The caller
/// is worker 0 and `threads - 1` helpers are workers 1..; worker t takes
/// partitions t, t+T, t+2T, … The partition→thread mapping is pure load
/// balancing: partitions share no mutable state within an epoch, and the
/// barrier's acquire/release pairs publish each epoch's writes (see
/// DESIGN.md "Parallel simulation"), so WHICH thread ran a partition can
/// never reach a result. With one worker everything runs inline.
template <typename Body>
class EpochPool {
 public:
  EpochPool(uint32_t threads, uint32_t partitions, Body body)
      : partitions_(partitions),
        stride_(std::clamp(threads, 1u, partitions)),
        body_(std::move(body)) {
    helpers_.reserve(stride_ - 1);
    for (uint32_t t = 1; t < stride_; t++) {
      helpers_.emplace_back([this, t] { HelperLoop(t); });
    }
  }

  EpochPool(const EpochPool&) = delete;
  EpochPool& operator=(const EpochPool&) = delete;

  ~EpochPool() {
    if (helpers_.empty()) return;
    shutdown_.store(true, std::memory_order_relaxed);
    Publish();
    for (std::thread& h : helpers_) h.join();
  }

  void Run() {
    if (!helpers_.empty()) {
      pending_.store(static_cast<uint32_t>(helpers_.size()),
                     std::memory_order_relaxed);
      Publish();
    }
    RunShare(0);
    if (!helpers_.empty()) AwaitHelpers();
  }

 private:
  void RunShare(uint32_t worker) {
    for (uint32_t p = worker; p < partitions_; p += stride_) body_(p);
  }

  /// Opens the next generation. The increment is a release that makes the
  /// caller's barrier-leg writes (and `pending_`, `shutdown_`) visible to
  /// every helper that acquires the new value.
  void Publish() {
    generation_.fetch_add(1, std::memory_order_seq_cst);
    Wake(&parked_helpers_, &work_cv_);
  }

  /// The caller's side of the end-of-epoch barrier: the load that reads 0
  /// synchronizes with every helper's decrement (one release sequence of
  /// RMWs), so all partitions' writes are visible afterwards.
  void AwaitHelpers() {
    Await([this] { return pending_.load(std::memory_order_seq_cst) == 0; },
          &parked_caller_, &done_cv_);
  }

  void HelperLoop(uint32_t worker) {
    uint64_t seen = 0;
    for (;;) {
      Await(
          [&] {
            const uint64_t g = generation_.load(std::memory_order_seq_cst);
            if (g == seen) return false;
            seen = g;
            return true;
          },
          &parked_helpers_, &work_cv_);
      if (shutdown_.load(std::memory_order_relaxed)) return;
      RunShare(worker);
      if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        Wake(&parked_caller_, &done_cv_);
      }
    }
  }

  /// Spins on `ready` for kSpinIterations, then parks on `cv`. Parking is
  /// one half of a Dekker handshake: the waiter bumps `parked` under the
  /// mutex before re-checking `ready`, and the waker changes what `ready`
  /// reads before loading `parked` in `Wake`. Both use seq_cst, so either
  /// the waiter sees the change or the waker sees it parked and notifies
  /// under the mutex — a wakeup cannot be lost.
  template <typename Ready>
  void Await(Ready ready, std::atomic<uint32_t>* parked,
             std::condition_variable* cv) {
    for (uint32_t i = 0; i < kSpinIterations; i++) {
      if (ready()) return;
      CpuRelax();
    }
    std::unique_lock<std::mutex> lock(mu_);
    parked->fetch_add(1, std::memory_order_seq_cst);
    cv->wait(lock, ready);
    parked->fetch_sub(1, std::memory_order_relaxed);
  }

  void Wake(std::atomic<uint32_t>* parked, std::condition_variable* cv) {
    if (parked->load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    cv->notify_all();
  }

  const uint32_t partitions_;
  const uint32_t stride_;  ///< workers, the caller included
  Body body_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> pending_{0};  ///< helpers still in this epoch
  std::atomic<uint32_t> parked_helpers_{0};  ///< asleep on work_cv_
  std::atomic<uint32_t> parked_caller_{0};   ///< asleep on done_cv_
  std::atomic<bool> shutdown_{false};
  std::mutex mu_;  ///< guards only the condvar sleeps
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> helpers_;  // last: threads use the members above
};

/// Closed-loop client: a persistent context (its clock is the client's
/// timeline), the workload stream, and ops issued so far.
struct ClosedClient {
  NetContext ctx;
  Random rng;
  uint64_t issued = 0;
};

/// Open-loop client: each op runs on a fresh context, so all a client keeps
/// is its two streams, ops issued, and its latest completion time.
struct OpenClient {
  Random rng;
  Random arrival_rng;
  uint64_t issued = 0;
  uint64_t done_ns = 0;  ///< max over completed ops, not the last op's
};

/// A client's final clock. A closed-loop client's traffic lives in its own
/// context and is summed into `total` here; open-loop traffic was already
/// summed per partition as the ops ran.
uint64_t FoldClient(const ClosedClient& cl, NetContext* total) {
  AccumulateTraffic(total, cl.ctx);
  return cl.ctx.sim_ns;
}
uint64_t FoldClient(const OpenClient& cl, NetContext*) { return cl.done_ns; }

/// One client partition's private slice of the run. Client c lives in
/// partition c % P at `clients[c / P]`, so a partition's clients are
/// contiguous in memory and no two workers write one cache line.
template <typename Client>
struct alignas(64) Partition {
  std::priority_queue<Runnable, std::vector<Runnable>,
                      std::greater<Runnable>>
      heap;
  std::vector<Client> clients;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;
  Histogram latency;
  /// Per-op records (when `keep_records`) in heap-pop order, which is
  /// already canonical order.
  bool keep_records = false;
  std::vector<LoadReport::OpTrace> records;
  /// Open loop: the traffic counters of every op this partition ran.
  NetContext traffic;
  PartitionEffects effects;
  /// Per-tenant SLO observations accumulated this epoch (when `observe`,
  /// i.e. a controller is attached); ingested at the barrier in
  /// partition-id order and cleared.
  bool observe = false;
  SloController::EpochObservations obs;

  /// Accounts one finished op: `t` spans its arrival to its completion.
  void Finish(const LoadReport::OpTrace& t, const Status& st,
              uint32_t tenant) {
    const uint64_t latency_ns = t.done_ns - t.arrival_ns;
    ops++;
    if (!st.ok()) {
      errors++;
      if (st.IsBusy()) busy++;
    }
    latency.Record(latency_ns);
    if (observe) obs[tenant].Add(latency_ns, st);
    if (keep_records) records.push_back(t);
  }
};

/// Smallest pending event time across all partitions, or UINT64_MAX.
template <typename Client>
uint64_t MinPending(const std::vector<Partition<Client>>& parts) {
  uint64_t next = std::numeric_limits<uint64_t>::max();
  for (const Partition<Client>& part : parts) {
    if (!part.heap.empty()) next = std::min(next, part.heap.top().at_ns);
  }
  return next;
}

/// The epoch loop, and the one place barrier instants are decided.
/// `step(part, r, &client)` runs one popped event `r` of `client`; the pool
/// runs it for every event below the epoch end in every partition, then the
/// barrier legs run on the calling thread while the helpers wait for the
/// next epoch:
///  1. replay every partition's effect shards into the authoritative
///     objects, in partition-id order (a map there only interleaves shards
///     of *independent* objects, so its iteration order cannot matter);
///  2. feed the SLO controller each partition's observations in
///     partition-id order (Sample::Merge commutes), then its control step —
///     the actuation is seen by every partition of the next epoch and by
///     none of the current one;
///  3. membership: heartbeat rounds, revocations and repairs.
/// Empty epochs are skipped by jumping straight to the epoch holding the
/// earliest pending event (same boundaries as stepping one by one).
template <typename Client, typename Step>
void RunEpochs(const ParallelConfig& cfg, uint64_t epoch_ns,
               std::vector<Partition<Client>>* parts, Step step,
               LoadReport* report) {
  const uint32_t P = static_cast<uint32_t>(parts->size());
  uint64_t epoch_end = EpochEndFor(MinPending(*parts), epoch_ns);
  auto body = [parts, P, &epoch_end, &step](uint32_t p) {
    Partition<Client>& part = (*parts)[p];
    PartitionEffectsScope scope(&part.effects);
    while (!part.heap.empty() && part.heap.top().at_ns < epoch_end) {
      const Runnable r = part.heap.top();
      part.heap.pop();
      step(part, r, &part.clients[r.client / P]);
    }
  };
  EpochPool<decltype(body)> pool(cfg.threads, P, body);
  for (;;) {
    pool.Run();
    report->epochs++;
    for (Partition<Client>& part : *parts) {
      for (auto& [state, shard] : part.effects.congestion_shards) {
        state->MergeShard(shard.get());
      }
      for (auto& [breaker, shard] : part.effects.breaker_shards) {
        breaker->MergeShard(&shard);
      }
    }
    if (cfg.controller != nullptr) {
      for (Partition<Client>& part : *parts) {
        cfg.controller->Ingest(part.obs);
        part.obs.clear();
      }
      cfg.controller->EndEpoch(epoch_end);
    }
    if (cfg.membership != nullptr) cfg.membership->EndEpoch(epoch_end);

    const uint64_t next = MinPending(*parts);
    if (next == std::numeric_limits<uint64_t>::max()) break;
    epoch_end = EpochEndFor(next, epoch_ns);
  }
}

/// A whole run under one arrival policy. `make(c)` builds client c's state,
/// `first_ns(c, &client)` is its first event, and `step` runs one event
/// (see `RunEpochs`). With `keep_records` the partitions' records are
/// merged into canonical order afterwards, and `visit(&report, record)`
/// sees each one before it joins the trace (when `record_trace` is set).
template <typename Client, typename Make, typename First, typename Step,
          typename Visit>
LoadReport RunLoad(const ParallelConfig& cfg, uint64_t clients,
                   uint64_t ops_per_client, bool keep_records, Make make,
                   First first_ns, Step step, Visit visit) {
  LoadReport report;
  report.clients = clients;
  if (clients == 0 || ops_per_client == 0) return report;

  // Round-robin partitions (client % P) are part of the determinism
  // contract's config, never a runtime decision; 0 partitions means 1.
  const uint32_t P =
      static_cast<uint32_t>(std::clamp<uint64_t>(cfg.partitions, 1, clients));
  std::vector<Partition<Client>> parts(P);
  for (uint32_t p = 0; p < P; p++) {
    const uint64_t n = (clients - p + P - 1) / P;
    parts[p].clients.reserve(n);
    parts[p].keep_records = keep_records;
    if (keep_records) parts[p].records.reserve(n * ops_per_client);
    parts[p].observe = cfg.controller != nullptr;
  }
  for (uint64_t c = 0; c < clients; c++) {
    Partition<Client>& part = parts[c % P];
    part.clients.push_back(make(c));
    part.heap.push({first_ns(c, &part.clients.back()), c});
  }

  RunEpochs(cfg, cfg.epoch_ns > 0 ? cfg.epoch_ns : kDefaultEpochNs, &parts,
            step, &report);

  for (Partition<Client>& part : parts) {
    report.ops += part.ops;
    report.errors += part.errors;
    report.busy += part.busy;
    report.latency.Merge(part.latency);  // bucket merge: order-insensitive
    AccumulateTraffic(&report.total, part.traffic);
  }
  report.per_client_sim_ns.resize(clients);
  for (uint64_t c = 0; c < clients; c++) {
    const uint64_t done =
        FoldClient(parts[c % P].clients[c / P], &report.total);
    report.per_client_sim_ns[c] = done;
    report.makespan_ns = std::max(report.makespan_ns, done);
  }
  report.total.sim_ns = report.makespan_ns;  // MergeParallel's max
  if (!keep_records) return report;

  // A k-way merge of the partitions' runs, each released afterwards.
  std::vector<internal::TraceRun> runs;
  runs.reserve(P);
  for (const Partition<Client>& part : parts) {
    runs.push_back({part.records.data(),
                    part.records.data() + part.records.size()});
  }
  if (cfg.record_trace) report.trace.reserve(report.ops);
  internal::MergeTraceRuns(std::move(runs),
                           [&](const LoadReport::OpTrace& t) {
                             visit(&report, t);
                             if (cfg.record_trace) report.trace.push_back(t);
                           });
  for (Partition<Client>& part : parts) {
    std::vector<LoadReport::OpTrace>().swap(part.records);
  }
  return report;
}

}  // namespace

LoadReport RunClosedLoop(const LoadOptions& opts, const ClientOpFn& op) {
  return RunLoad<ClosedClient>(
      opts.parallel, opts.clients, opts.ops_per_client,
      opts.parallel.record_trace,
      [&](uint64_t c) {
        return ClosedClient{NetContext{}, Random(ClientSeed(opts.seed, c)), 0};
      },
      [](uint64_t, ClosedClient*) { return uint64_t{0}; },
      [&](Partition<ClosedClient>& part, const Runnable& r, ClosedClient* cl) {
        NetContext* ctx = &cl->ctx;
        const uint64_t before = ctx->sim_ns;
        ctx->op_tag = OpTag(r.client, cl->issued);
        const Status st = op(r.client, cl->issued, ctx, &cl->rng);
        part.Finish({before, ctx->sim_ns, r.client, cl->issued, st.code()}, st,
                    ctx->tenant);
        if (opts.think_ns > 0) ctx->Charge(opts.think_ns);
        if (++cl->issued < opts.ops_per_client) {
          part.heap.push({ctx->sim_ns, r.client});
        }
      },
      [](LoadReport*, const LoadReport::OpTrace&) {});
}

LoadReport RunOpenLoop(const OpenLoopOptions& opts, const ClientOpFn& op) {
  const double period_ns = 1e9 / opts.ops_per_sec;
  // The in-flight gauge, replayed over the canonical order: ops whose
  // completion precedes an arrival have left the system by then.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>
      completions;
  // Records are always kept: the gauge needs them even without a trace. A
  // stream at a non-positive rate offers nothing.
  LoadReport report = RunLoad<OpenClient>(
      opts.parallel, opts.clients,
      opts.ops_per_sec > 0.0 ? opts.ops_per_client : 0, /*keep_records=*/true,
      [&](uint64_t c) {
        return OpenClient{Random(ClientSeed(opts.seed, c)),
                          Random(ClientSeed(opts.seed, c) ^
                                 internal::kArrivalSalt),
                          0, 0};
      },
      [&](uint64_t c, OpenClient* cl) {
        return internal::FirstArrivalNs(opts, period_ns, c, &cl->arrival_rng);
      },
      [&](Partition<OpenClient>& part, const Runnable& a, OpenClient* cl) {
        // A fresh context clocked at the arrival instant: arrivals do not
        // wait for each other client-side (that is the congestion model's
        // job server-side), so the stream keeps offering load while earlier
        // ops queue. Its traffic is summed per partition; integer sums
        // commute, so `report.total` is independent of the partitioning.
        NetContext ctx;
        ctx.sim_ns = a.at_ns;
        ctx.op_tag = OpTag(a.client, cl->issued);
        const Status st = op(a.client, cl->issued, &ctx, &cl->rng);
        part.Finish({a.at_ns, ctx.sim_ns, a.client, cl->issued, st.code()}, st,
                    ctx.tenant);
        AccumulateTraffic(&part.traffic, ctx);
        // A later arrival can finish first: keep the max completion.
        cl->done_ns = std::max(cl->done_ns, ctx.sim_ns);
        if (++cl->issued < opts.ops_per_client) {
          part.heap.push(
              {a.at_ns + internal::NextGapNs(opts, period_ns, &cl->arrival_rng),
               a.client});
        }
      },
      [&completions](LoadReport* r, const LoadReport::OpTrace& t) {
        while (!completions.empty() && completions.top() <= t.arrival_ns) {
          completions.pop();
        }
        completions.push(t.done_ns);
        const uint64_t depth = completions.size();  // includes the op itself
        r->queue_depth.Record(depth);
        r->max_in_flight = std::max(r->max_in_flight, depth);
      });
  if (report.ops > 0) {
    report.offered_ops_per_sec =
        opts.ops_per_sec * static_cast<double>(opts.clients);
  }
  return report;
}

std::string LoadReport::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "clients=%llu ops=%llu errors=%llu busy=%llu "
                "makespan_ms=%.3f tput_kops=%.1f offered_kops=%.1f "
                "p50_us=%.2f p99_us=%.2f queue_ms=%.3f max_inflight=%llu",
                static_cast<unsigned long long>(clients),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(busy),
                static_cast<double>(makespan_ns) / 1e6,
                ThroughputOpsPerSec() / 1e3, offered_ops_per_sec / 1e3,
                latency.Percentile(50) / 1e3, latency.Percentile(99) / 1e3,
                static_cast<double>(total.queue_ns) / 1e6,
                static_cast<unsigned long long>(max_in_flight));
  return buf;
}

}  // namespace sim
}  // namespace disagg
