#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, reported by the untraced run (same names on every
/// workload).
const std::vector<MetricDef>& EndToEndDefs();

/// Per-layer metrics, reported by the traced run. A metric whose layer a
/// workload does not use reads 0 there.
const std::vector<MetricDef>& PerLayerDefs();

/// Every simulated-clock metric of a repetition: a pure function of (seed,
/// partitions, epoch_ns), so two runs of one seed must agree bit for bit.
/// Includes `failed_frac` and the per-op-type latency percentiles with their
/// sample counts.
Metrics SimClock(const RepResult& r);

/// End-to-end metrics of one untraced repetition, except `peak_rss_mb`,
/// which the process measures around it.
Metrics EndToEnd(const RepResult& r);

/// Per-layer metrics from a traced repetition's spans and counters, with
/// `untraced` (same workload and seed) as the base of the tracing overhead.
Metrics PerLayer(const RepResult& traced, const RepResult& untraced);

/// Median of each metric across repetitions.
Metrics Medians(const std::vector<Metrics>& reps);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
