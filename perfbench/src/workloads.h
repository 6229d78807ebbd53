#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "sim/load_driver.h"
#include "trace.h"

namespace perfbench {

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

struct WorkloadConfig {
  std::string name;
  uint64_t seed = 1;
  bool small = false;    ///< self-test size: same shape, far fewer ops
  uint32_t threads = 0;  ///< driver threads; 0 = the workload's default
};

/// One set-up, measured run and correctness check of a workload.
struct RepResult {
  double setup_s = 0;  ///< host: fabric, nodes and preload, up to the run
  double run_s = 0;    ///< host: the RunClosedLoop/RunOpenLoop call
  uint32_t threads = 1;
  disagg::sim::LoadReport report;
  uint64_t expected_ops = 0;  ///< clients x ops_per_client

  /// Simulated per-op latency by op type (open loop: from arrival).
  std::vector<uint64_t> read_ns;
  std::vector<uint64_t> write_ns;

  /// Empty when every correctness check passed.
  std::string check_error;

  /// Layer counters the workload reads from the library (stats deltas,
  /// setup phases), keyed by metric name.
  std::map<std::string, double> layer;

  /// Set on a traced run; `node_kinds[id]` resolves fabric span targets.
  std::unique_ptr<Tracer> tracer;
  std::vector<disagg::NodeKind> node_kinds;
};

/// Runs one repetition. `traced` installs the span recorder and the fabric
/// timing interceptor for the measured phase only. An unknown name yields a
/// result whose `check_error` says so.
RepResult RunRep(const WorkloadConfig& cfg, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
