#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using disagg::FabricVerb;
using disagg::NodeKind;

namespace {

// Fabric verbs and destination kinds broken out per layer: those the
// workloads use.
constexpr FabricVerb kVerbs[] = {
    FabricVerb::kRead,       FabricVerb::kWrite,      FabricVerb::kCas,
    FabricVerb::kReadAtomic, FabricVerb::kWriteBatch, FabricVerb::kRpc,
};
constexpr NodeKind kNodeKinds[] = {NodeKind::kMemory, NodeKind::kStorage};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const size_t i = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(i), v.end());
  return static_cast<double>(v[i]);
}

std::vector<MetricDef> BuildPerLayerDefs() {
  std::vector<MetricDef> d = {
      {"sim.head_s", "s"},
      {"sim.tail_s", "s"},
      {"sim.op_thread_s", "s"},
      {"sim.overlap", "ratio"},
      {"sim.sched_ns_per_op", "ns/op"},
      {"sim.epochs", "count"},
      {"sim.op_self_s", "s"},
      {"sim.read_p50_us", "us"},
      {"sim.read_p99_us", "us"},
      {"sim.write_p50_us", "us"},
      {"sim.write_p99_us", "us"},
      {"sim.read_samples", "count"},
      {"sim.write_samples", "count"},
      {"failed_frac", "ratio"},
      {"net.host_ns_per_fabric_op", "ns"},
      {"net.fabric_ops_per_op", "ops/op"},
      {"net.rtts_per_op", "rtt/op"},
      {"net.rpcs_per_op", "rpc/op"},
      {"net.bytes_in_per_op", "B/op"},
      {"net.bytes_out_per_op", "B/op"},
      {"net.queue_us_per_op", "us/op"},
      {"net.retries", "count"},
      {"net.self_s", "s"},
  };
  for (FabricVerb v : kVerbs) {
    const std::string p = std::string("net.") + disagg::FabricVerbName(v);
    d.push_back({p + ".ops_per_op", "ops/op"});
    d.push_back({p + ".sim_us_per_op", "us/op"});
  }
  for (NodeKind k : kNodeKinds) {
    const std::string p = std::string("net.") + disagg::NodeKindName(k);
    d.push_back({p + ".ops_per_op", "ops/op"});
    d.push_back({p + ".sim_us_per_op", "us/op"});
    d.push_back({p + ".host_ns_per_op", "ns/op"});
  }
  const std::vector<MetricDef> rest = {
      {"core.get_host_us_p50", "us"},
      {"core.get_host_us_p99", "us"},
      {"core.update_host_us_p50", "us"},
      {"core.update_host_us_p99", "us"},
      {"core.page_fetches_per_op", "count/op"},
      {"core.aborts", "count"},
      {"core.load_s", "s"},
      {"core.self_s", "s"},
      {"txn.commit_host_us_p50", "us"},
      {"txn.commit_host_us_p99", "us"},
      {"txn.commit_sim_us_p50", "us"},
      {"txn.fabric_ops_per_commit", "ops/commit"},
      {"txn.self_s", "s"},
      {"rindex.get_host_us_p50", "us"},
      {"rindex.put_host_us_p50", "us"},
      {"rindex.rtts_per_get", "rtt/op"},
      {"rindex.rtts_per_put", "rtt/op"},
      {"rindex.busy_frac", "ratio"},
      {"rindex.load_s", "s"},
      {"rindex.self_s", "s"},
      {"memnode.pool_setup_s", "s"},
      {"memnode.pool_rss_mb", "MB"},
      {"trace.host_kops_traced", "kops/s"},
      {"trace.host_kops_untraced", "kops/s"},
      {"trace.kops_ratio", "ratio"},
      {"trace.accounted_frac", "ratio"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

}  // namespace

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"host_kops", "kops/s"},
      {"peak_rss_mb", "MB"},
      {"sim_kops", "kops/s"},
      {"sim_mean_us", "us"},
      {"sim_bytes_per_op", "B/op"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> kDefs = BuildPerLayerDefs();
  return kDefs;
}

Metrics Medians(const std::vector<Metrics>& reps) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Metrics& m : reps) {
    for (const auto& [name, value] : m) by_name[name].push_back(value);
  }
  Metrics out;
  for (auto& [name, values] : by_name) {
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    out[name] = n % 2 == 1 ? values[n / 2]
                           : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  }
  return out;
}

Metrics SimClock(const RepResult& r) {
  const double ops = static_cast<double>(r.report.ops);
  const disagg::NetContext& t = r.report.total;
  double latency_ns = 0;
  for (const auto* v : {&r.read_ns, &r.write_ns}) {
    for (uint64_t ns : *v) latency_ns += static_cast<double>(ns);
  }
  Metrics m;
  m["sim_kops"] = r.report.ThroughputOpsPerSec() / 1e3;
  m["sim_mean_us"] = Ratio(latency_ns / 1e3, ops);
  m["sim_bytes_per_op"] =
      Ratio(static_cast<double>(t.bytes_in + t.bytes_out), ops);
  m["sim.read_p50_us"] = Percentile(r.read_ns, 50) / 1e3;
  m["sim.read_p99_us"] = Percentile(r.read_ns, 99) / 1e3;
  m["sim.write_p50_us"] = Percentile(r.write_ns, 50) / 1e3;
  m["sim.write_p99_us"] = Percentile(r.write_ns, 99) / 1e3;
  m["sim.read_samples"] = static_cast<double>(r.read_ns.size());
  m["sim.write_samples"] = static_cast<double>(r.write_ns.size());
  m["failed_frac"] = Ratio(static_cast<double>(r.report.errors), ops);
  return m;
}

Metrics EndToEnd(const RepResult& r) {
  Metrics m = SimClock(r);
  m["setup_s"] = r.setup_s;
  m["host_kops"] = Ratio(static_cast<double>(r.report.ops), r.run_s) / 1e3;
  return m;
}

Metrics PerLayer(const RepResult& traced, const RepResult& untraced) {
  Metrics m;
  for (const MetricDef& d : PerLayerDefs()) m[d.name] = 0;
  const double ops = static_cast<double>(traced.report.ops);
  const SpanTable table = traced.tracer->Collect();
  const std::vector<Span>& spans = table.spans;

  // Self time: a span's duration minus the part its child spans cover.
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) {
      child_ns[table.Index(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  double self_s[kNumSpanKinds] = {};
  uint64_t run_start = 0, run_end = 0;
  uint64_t first_op = ~0ull, last_op = 0, op_thread_ns = 0;
  std::vector<uint64_t> host_ns[kNumSpanKinds];
  uint64_t rtt_sum[kNumSpanKinds] = {};
  std::vector<uint64_t> commit_sim_ns;
  uint64_t commit_fabric_ops = 0;
  std::map<NodeKind, uint64_t> kind_ops, kind_sim_ns, kind_host_ns;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    const size_t k = static_cast<size_t>(s.kind);
    self_s[k] += static_cast<double>(dur - child_ns[i]) / 1e9;
    host_ns[k].push_back(dur);
    switch (s.kind) {
      case SpanKind::kRun:
        run_start = s.start_ns;
        run_end = s.end_ns;
        break;
      case SpanKind::kOp:
        first_op = std::min(first_op, s.start_ns);
        last_op = std::max(last_op, s.end_ns);
        op_thread_ns += dur;
        break;
      case SpanKind::kTxnCommit:
        commit_sim_ns.push_back(s.sim_ns);
        break;
      case SpanKind::kFabric: {
        const NodeKind nk = traced.node_kinds.at(s.aux);
        kind_ops[nk]++;
        kind_sim_ns[nk] += s.sim_ns;
        kind_host_ns[nk] += dur;
        if (s.parent != kNoSpan &&
            spans[table.Index(s.parent)].kind == SpanKind::kTxnCommit) {
          commit_fabric_ops++;
        }
        break;
      }
      default:
        rtt_sum[k] += s.aux;
        break;
    }
  }
  auto self = [&](SpanKind k) { return self_s[static_cast<size_t>(k)]; };
  auto host_us = [&](SpanKind k, double p) {
    return Percentile(host_ns[static_cast<size_t>(k)], p) / 1e3;
  };
  auto count = [&](SpanKind k) {
    return static_cast<double>(host_ns[static_cast<size_t>(k)].size());
  };
  auto rtts_per = [&](SpanKind k) {
    return Ratio(static_cast<double>(rtt_sum[static_cast<size_t>(k)]),
                 count(k));
  };

  // sim: the load driver, from the run span and the op spans under it.
  const double op_wall_ns =
      last_op > first_op ? static_cast<double>(last_op - first_op) : 0.0;
  const double thread_ns = op_wall_ns * static_cast<double>(traced.threads);
  m["sim.head_s"] = static_cast<double>(first_op - run_start) / 1e9;
  m["sim.tail_s"] = static_cast<double>(run_end - last_op) / 1e9;
  m["sim.op_thread_s"] = static_cast<double>(op_thread_ns) / 1e9;
  m["sim.overlap"] = Ratio(static_cast<double>(op_thread_ns), op_wall_ns);
  m["sim.sched_ns_per_op"] =
      Ratio(thread_ns - static_cast<double>(op_thread_ns), ops);
  m["sim.epochs"] = static_cast<double>(traced.report.epochs);
  m["sim.op_self_s"] = self(SpanKind::kOp);
  for (const auto& [name, value] : SimClock(traced)) {
    if (m.count(name) != 0) m[name] = value;
  }

  // net: the fabric timer's spans plus the run's NetContext totals.
  const disagg::NetContext& t = traced.report.total;
  const double fabric_ops = count(SpanKind::kFabric);
  double fabric_host_ns = 0;
  for (uint64_t ns : host_ns[static_cast<size_t>(SpanKind::kFabric)]) {
    fabric_host_ns += static_cast<double>(ns);
  }
  m["net.host_ns_per_fabric_op"] = Ratio(fabric_host_ns, fabric_ops);
  m["net.fabric_ops_per_op"] = Ratio(fabric_ops, ops);
  m["net.rtts_per_op"] = Ratio(static_cast<double>(t.round_trips), ops);
  m["net.rpcs_per_op"] = Ratio(static_cast<double>(t.rpcs), ops);
  m["net.bytes_in_per_op"] = Ratio(static_cast<double>(t.bytes_in), ops);
  m["net.bytes_out_per_op"] = Ratio(static_cast<double>(t.bytes_out), ops);
  m["net.queue_us_per_op"] = Ratio(static_cast<double>(t.queue_ns) / 1e3, ops);
  m["net.retries"] = static_cast<double>(t.retries);
  m["net.self_s"] = self(SpanKind::kFabric);
  for (FabricVerb v : kVerbs) {
    const std::string p = std::string("net.") + disagg::FabricVerbName(v);
    const disagg::VerbCounters& vc = t.verb(v);
    m[p + ".ops_per_op"] = Ratio(static_cast<double>(vc.ops), ops);
    m[p + ".sim_us_per_op"] = Ratio(static_cast<double>(vc.sim_ns) / 1e3, ops);
  }
  for (NodeKind k : kNodeKinds) {
    const std::string p = std::string("net.") + disagg::NodeKindName(k);
    m[p + ".ops_per_op"] = Ratio(static_cast<double>(kind_ops[k]), ops);
    m[p + ".sim_us_per_op"] =
        Ratio(static_cast<double>(kind_sim_ns[k]) / 1e3, ops);
    m[p + ".host_ns_per_op"] =
        Ratio(static_cast<double>(kind_host_ns[k]), ops);
  }

  // core and txn: RowEngine calls.
  auto layer = [&](const char* name) {
    auto it = traced.layer.find(name);
    return it == traced.layer.end() ? 0.0 : it->second;
  };
  m["core.get_host_us_p50"] = host_us(SpanKind::kCoreGet, 50);
  m["core.get_host_us_p99"] = host_us(SpanKind::kCoreGet, 99);
  m["core.update_host_us_p50"] = host_us(SpanKind::kCoreUpdate, 50);
  m["core.update_host_us_p99"] = host_us(SpanKind::kCoreUpdate, 99);
  m["core.page_fetches_per_op"] = Ratio(layer("core.page_fetches"), ops);
  m["core.aborts"] = layer("core.aborts");
  m["core.load_s"] = layer("core.load_s");
  m["core.self_s"] = self(SpanKind::kCoreGet) + self(SpanKind::kCoreUpdate);
  m["txn.commit_host_us_p50"] = host_us(SpanKind::kTxnCommit, 50);
  m["txn.commit_host_us_p99"] = host_us(SpanKind::kTxnCommit, 99);
  m["txn.commit_sim_us_p50"] = Percentile(commit_sim_ns, 50) / 1e3;
  m["txn.fabric_ops_per_commit"] = Ratio(
      static_cast<double>(commit_fabric_ops), count(SpanKind::kTxnCommit));
  m["txn.self_s"] = self(SpanKind::kTxnCommit);

  // rindex: RemoteBTree calls.
  m["rindex.get_host_us_p50"] = host_us(SpanKind::kRindexGet, 50);
  m["rindex.put_host_us_p50"] = host_us(SpanKind::kRindexPut, 50);
  m["rindex.rtts_per_get"] = rtts_per(SpanKind::kRindexGet);
  m["rindex.rtts_per_put"] = rtts_per(SpanKind::kRindexPut);
  m["rindex.busy_frac"] = layer("rindex.busy_frac");
  m["rindex.load_s"] = layer("rindex.load_s");
  m["rindex.self_s"] =
      self(SpanKind::kRindexGet) + self(SpanKind::kRindexPut);

  // memnode: pool construction during set-up.
  m["memnode.pool_setup_s"] = layer("memnode.pool_setup_s");
  m["memnode.pool_rss_mb"] = layer("memnode.pool_rss_mb");

  // Tracing overhead, and how much of the untraced op phase the layer self
  // times plus the driver's scheduling time account for. The untraced op
  // phase is its run wall less the traced head and tail, which hold no
  // spans of their own.
  const double kops_traced = Ratio(ops, traced.run_s) / 1e3;
  const double kops_untraced =
      Ratio(static_cast<double>(untraced.report.ops), untraced.run_s) / 1e3;
  m["trace.host_kops_traced"] = kops_traced;
  m["trace.host_kops_untraced"] = kops_untraced;
  m["trace.kops_ratio"] = Ratio(kops_traced, kops_untraced);
  // The run span is the driver's frame around the op phase, not a layer
  // call: its time outside ops is already split into head, tail and sched.
  double self_total = 0;
  for (size_t k = 0; k < kNumSpanKinds; k++) {
    if (k != static_cast<size_t>(SpanKind::kRun)) self_total += self_s[k];
  }
  const double accounted_s =
      self_total + m["sim.sched_ns_per_op"] * ops / 1e9;
  const double untraced_op_s =
      untraced.run_s - m["sim.head_s"] - m["sim.tail_s"];
  m["trace.accounted_frac"] = Ratio(
      accounted_s, untraced_op_s * static_cast<double>(traced.threads));
  return m;
}

}  // namespace perfbench
