#ifndef DISAGG_SIM_DRIVER_INTERNAL_H_
#define DISAGG_SIM_DRIVER_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "sim/load_driver.h"

// Arithmetic shared verbatim by the load driver (load_driver.cc) and the
// global-order reference loop in tests/parallel_sim_test.cc. Single-sourcing
// it is what makes "partitions == 1 reproduces the global virtual-time
// order bit for bit" a property of the schedule rather than of two copies
// of the same formulas: both draw the same client seeds, the same arrival
// streams, and the same op tags.

namespace disagg {
namespace sim {
namespace internal {

/// Distinct, seed-derived per-client streams (golden-ratio spacing avoids
/// the correlated low bits of seed, seed+1, ...). The SAME derivation is
/// used by both loop shapes so a workload closure draws identically under
/// closed- and open-loop scheduling.
inline uint64_t ClientSeed(uint64_t seed, uint64_t client) {
  return seed + client * 0x9E3779B97F4A7C15ull;
}

/// Salt for the open-loop arrival streams, independent of the workload
/// streams so switching arrival processes never perturbs the op draws.
inline constexpr uint64_t kArrivalSalt = 0xA221BA15ED5EEDull;

/// The `NetContext::op_tag` for (client, op_index): a nonzero hash that is
/// a pure function of the logical op's identity, so tag-keyed fault
/// decisions are identical under any scheduling of the same workload.
inline uint64_t OpTag(uint64_t client, uint64_t op_index) {
  uint64_t mix = (client + 1) * 0x9E3779B97F4A7C15ull;
  mix ^= (op_index + 1) * 0xC2B2AE3D27D4EB4Full;
  mix ^= mix >> 29;
  return mix | 1;  // 0 means "untagged"
}

/// Inter-arrival gap for one open-loop stream (`period_ns` = 1e9 / rate).
inline uint64_t NextGapNs(const OpenLoopOptions& opts, double period_ns,
                          Random* arrival_rng) {
  if (opts.process == ArrivalProcess::kDeterministic) {
    return static_cast<uint64_t>(period_ns);
  }
  // Exponential inter-arrival. NextDouble() is in [0, 1), so the argument
  // of log is in (0, 1] and the gap is finite.
  const double u = arrival_rng->NextDouble();
  return static_cast<uint64_t>(-std::log(1.0 - u) * period_ns);
}

/// First arrival of client `c`'s open-loop stream.
inline uint64_t FirstArrivalNs(const OpenLoopOptions& opts, double period_ns,
                               uint64_t c, Random* arrival_rng) {
  if (opts.process == ArrivalProcess::kDeterministic) {
    // Phase-stagger the streams across one period so N deterministic
    // clients offer a smooth aggregate rate instead of N-bursts.
    return static_cast<uint64_t>(period_ns * static_cast<double>(c) /
                                 static_cast<double>(opts.clients));
  }
  return NextGapNs(opts, period_ns, arrival_rng);
}

/// Canonical trace order — the global virtual-time order (client-id
/// tie-break, per-client op_index monotone). The key (arrival, client,
/// op_index) is unique per record: total order, no comparator ambiguity.
inline bool TraceLess(const LoadReport::OpTrace& a,
                      const LoadReport::OpTrace& b) {
  if (a.arrival_ns != b.arrival_ns) return a.arrival_ns < b.arrival_ns;
  if (a.client != b.client) return a.client < b.client;
  return a.op_index < b.op_index;
}

/// A run of trace records [begin, end), sorted by `TraceLess`.
struct TraceRun {
  const LoadReport::OpTrace* begin;
  const LoadReport::OpTrace* end;
};

/// K-way merge: calls `visit(record)` for every record of every run in
/// `TraceLess` order. The driver's per-partition runs qualify as
/// they are: a partition records ops in heap-pop order, and since a client
/// has one heap entry at a time and never schedules before its current
/// event, that order is already sorted.
template <typename Visit>
void MergeTraceRuns(std::vector<TraceRun> runs, Visit&& visit) {
  // Min-heap of the non-empty runs, keyed by their head record.
  auto later = [](const TraceRun& a, const TraceRun& b) {
    return TraceLess(*b.begin, *a.begin);
  };
  std::erase_if(runs, [](const TraceRun& r) { return r.begin == r.end; });
  std::make_heap(runs.begin(), runs.end(), later);
  while (runs.size() > 1) {
    std::pop_heap(runs.begin(), runs.end(), later);
    TraceRun& run = runs.back();
    visit(*run.begin);
    if (++run.begin == run.end) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
  if (runs.empty()) return;
  for (const LoadReport::OpTrace* t = runs[0].begin; t != runs[0].end; ++t) {
    visit(*t);
  }
}

}  // namespace internal
}  // namespace sim
}  // namespace disagg

#endif  // DISAGG_SIM_DRIVER_INTERNAL_H_
