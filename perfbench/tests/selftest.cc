// Small-size self-test of the benchmark: every workload passes its
// correctness checks, repeat runs of one seed give identical simulated
// metrics, tracing only observes, and fleet-open gives identical simulated
// metrics at 1 and 2 driver threads (the determinism contract).
//
// Run: ctest --test-dir <perfbench build dir>, or the perfbench_selftest
// binary directly. Exits non-zero on the first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) failures++;
}

/// Name of the first simulated-clock metric that differs, or "".
std::string FirstDiff(const Metrics& a, const Metrics& b) {
  for (const auto& [name, value] : a) {
    const double other = b.at(name);
    if (std::memcmp(&value, &other, sizeof value) != 0) return name;
  }
  return "";
}

RepResult Run(const std::string& name, uint64_t seed, bool traced,
              uint32_t threads = 0) {
  WorkloadConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  cfg.small = true;
  cfg.threads = threads;
  RepResult r = RunRep(cfg, traced);
  Expect(r.check_error.empty(),
         name + (traced ? " traced" : "") + " correctness checks pass " +
             r.check_error);
  return r;
}

void TestWorkload(const std::string& name) {
  const RepResult a = Run(name, 7, false);
  const RepResult b = Run(name, 7, false);
  const RepResult t = Run(name, 7, true);
  Expect(a.report.ops == a.expected_ops && a.report.errors == 0,
         name + " attempts every op and none fails");
  Expect(!a.read_ns.empty() && !a.write_ns.empty(),
         name + " issues both reads and writes");
  const Metrics ma = SimClock(a);
  const std::string repeat_diff = FirstDiff(ma, SimClock(b));
  const std::string traced_diff = FirstDiff(ma, SimClock(t));
  Expect(repeat_diff.empty(),
         name + " repeat run: sim metrics identical " + repeat_diff);
  Expect(traced_diff.empty(),
         name + " traced run: sim metrics identical " + traced_diff);
  const Metrics layer = PerLayer(t, a);
  Expect(layer.at("net.fabric_ops_per_op") > 0,
         name + " traced run times fabric ops");
  Expect(layer.at("sim.op_thread_s") > 0, name + " traced run times ops");
  const RepResult other = Run(name, 8, false);
  Expect(!FirstDiff(ma, SimClock(other)).empty(),
         name + " another seed gives other sim metrics");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  for (const std::string& name : WorkloadNames()) TestWorkload(name);
  const Metrics t1 = SimClock(Run("fleet-open", 11, false, 1));
  const Metrics t2 = SimClock(Run("fleet-open", 11, false, 2));
  Expect(FirstDiff(t1, t2).empty(),
         "fleet-open sim metrics identical at threads 1 and 2 " +
             FirstDiff(t1, t2));
  if (failures != 0) {
    std::printf("%d expectation(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("all expectations passed\n");
  return EXIT_SUCCESS;
}
