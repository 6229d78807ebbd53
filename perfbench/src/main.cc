// perfbench: runs one workload for a fixed host time and prints its
// metrics. See perfbench/run.py for the command that builds and runs it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-out <path>]
//
// --trace 0 repeats (set up, measured run, correctness check) until
// --seconds have passed and reports the median of each end-to-end metric.
// --trace 1 alternates untraced and traced repetitions, checks that tracing
// left every simulated metric bit-identical, and reports the median of each
// per-layer metric. The last line of stdout is the JSON result; any failed
// check prints no result and exits 1.

#include <malloc.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  WorkloadConfig cfg;
  double seconds = 10;
  bool trace = false;
  std::string span_out;
};

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(1);
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      a.cfg.name = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      a.cfg.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0 &&
               n <= 120) {
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      a.trace = n == 1;
    } else if (flag == "--span-out") {
      a.span_out = value;
    } else {
      Fail("bad argument: " + flag + " " + value);
    }
  }
  if (!have_workload) Fail("--workload is required");
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == a.cfg.name;
  if (!known) Fail("unknown workload: " + a.cfg.name);
  return a;
}

RepResult RunChecked(const WorkloadConfig& cfg, bool traced) {
  RepResult r = RunRep(cfg, traced);
  if (!r.check_error.empty()) {
    Fail(cfg.name + " seed " + std::to_string(cfg.seed) +
         (traced ? " (traced)" : "") + ": correctness check failed: " +
         r.check_error);
  }
  return r;
}

/// Fails unless the simulated-clock metrics `b` equal `a` bit for bit.
void RequireSimEqual(const Metrics& a, const Metrics& b, const char* what) {
  for (const auto& [name, value] : a) {
    const double other = b.at(name);
    if (std::memcmp(&value, &other, sizeof value) != 0) {
      Fail(std::string(what) + ": " + name + " differs (" +
           std::to_string(value) + " vs " + std::to_string(other) + ")");
    }
  }
}

/// Starts a repetition the way a fresh process would: freed heap memory is
/// returned to the kernel and the kernel's peak-RSS mark (VmHWM) is reset to
/// the current RSS, so `PeakRssMb` then reads this repetition's own peak.
void StartRep() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM of this process, in MiB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Fail("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) Fail("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

void PrintResult(const Metrics& m, const std::vector<MetricDef>& defs,
                 uint64_t attempted, uint64_t failed) {
  for (const MetricDef& d : defs) {
    std::printf("%-32s %14.6f %s\n", d.name.c_str(), m.at(d.name),
                d.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); i++) {
    const double v = m.at(defs[i].name);
    if (!std::isfinite(v)) Fail("metric " + defs[i].name + " is not finite");
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " +
            num + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metrics> reps;
  Metrics first_sim;
  std::unique_ptr<Tracer> last_tracer;
  do {
    StartRep();
    RepResult untraced = RunChecked(args.cfg, false);
    attempted += untraced.report.ops;
    failed += untraced.report.errors;
    Metrics e2e = EndToEnd(untraced);
    e2e["peak_rss_mb"] = PeakRssMb();
    const Metrics sim = SimClock(untraced);
    if (reps.empty()) first_sim = sim;
    RequireSimEqual(first_sim, sim, "repeat run of the same seed");
    std::printf("rep %zu: setup_s=%.4f host_kops=%.2f peak_rss_mb=%.1f "
                "sim_kops=%.3f reads=%.0f writes=%.0f\n",
                reps.size(), e2e.at("setup_s"), e2e.at("host_kops"),
                e2e.at("peak_rss_mb"), e2e.at("sim_kops"),
                e2e.at("sim.read_samples"), e2e.at("sim.write_samples"));
    if (!args.trace) {
      reps.push_back(e2e);
      continue;
    }
    RepResult traced = RunChecked(args.cfg, true);
    attempted += traced.report.ops;
    failed += traced.report.errors;
    RequireSimEqual(sim, SimClock(traced), "traced run");
    const Metrics layer = PerLayer(traced, untraced);
    std::printf("  traced: host_kops=%.2f kops_ratio=%.3f "
                "accounted_frac=%.3f\n",
                layer.at("trace.host_kops_traced"),
                layer.at("trace.kops_ratio"),
                layer.at("trace.accounted_frac"));
    reps.push_back(layer);
    if (!args.span_out.empty()) last_tracer = std::move(traced.tracer);
  } while (elapsed() < args.seconds);

  if (!args.span_out.empty() && last_tracer != nullptr &&
      !last_tracer->WriteTo(args.span_out)) {
    Fail("cannot write spans to " + args.span_out);
  }
  Metrics m = Medians(reps);
  if (args.trace) {
    PrintResult(m, PerLayerDefs(), attempted, failed);
  } else {
    std::printf("samples: sim_read_*=%.0f sim_write_*=%.0f reps=%zu\n",
                first_sim.at("sim.read_samples"),
                first_sim.at("sim.write_samples"), reps.size());
    PrintResult(m, EndToEndDefs(), attempted, failed);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
