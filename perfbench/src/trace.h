#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Host-clock spans recorded by the benchmark around each call it makes into
// a layer of the library, plus a fabric interceptor that times every fabric
// op. Spans live in per-thread in-memory buffers while the run is measured
// and are analysed (and optionally written out) after it ends; the program
// under test is never modified.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/net_context.h"

namespace perfbench {

/// What a span wraps. Each kind belongs to exactly one layer.
enum class SpanKind : uint8_t {
  kRun = 0,     ///< sim: RunClosedLoop / RunOpenLoop, call to return
  kOp,          ///< sim: the op closure the driver invokes
  kCoreGet,     ///< core: RowEngine::GetRow
  kCoreUpdate,  ///< core: RowEngine::Update
  kTxnCommit,   ///< txn: RowEngine::Commit
  kRindexGet,   ///< rindex: RemoteBTree::Get
  kRindexPut,   ///< rindex: RemoteBTree::Put
  kFabric,      ///< net: one op through Fabric::Execute
};
inline constexpr size_t kNumSpanKinds = 8;

/// Global span identifier: (thread buffer slot << 32) | index in buffer.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = ~0ull;

/// One recorded span (48 bytes; the on-disk record layout as well).
struct Span {
  uint64_t start_ns = 0;  ///< host steady clock, relative to tracer start
  uint64_t end_ns = 0;
  SpanId parent = kNoSpan;
  uint64_t sim_ns = 0;  ///< simulated time charged to the context inside
  uint32_t client = 0;  ///< op id: (client, op_index) of the enclosing op
  uint32_t op_index = 0;
  uint32_t aux = 0;  ///< fabric: target node id; otherwise round trips
  SpanKind kind = SpanKind::kRun;
  uint8_t verb = 0;  ///< fabric spans: disagg::FabricVerb
  uint16_t pad = 0;
};
static_assert(sizeof(Span) == 48);

/// All spans of a run in one array, addressable by SpanId.
struct SpanTable {
  std::vector<Span> spans;
  std::vector<size_t> offsets;  ///< flat index of each buffer's first span

  size_t Index(SpanId id) const {
    return offsets[id >> 32] + (id & 0xffffffffu);
  }
};

/// Collects spans from any number of threads. A thread appends only to its
/// own buffer, so recording takes no lock after the first span per thread.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  /// Opens a span on the calling thread, child of that thread's innermost
  /// open span (or of `parent` when given). `ctx`, when set, is sampled so
  /// the span records the simulated time and round trips charged inside it.
  SpanId Open(SpanKind kind, const disagg::NetContext* ctx,
              SpanId parent = kNoSpan);
  void Close(SpanId id, const disagg::NetContext* ctx);

  /// Stamps the op id carried by spans the calling thread opens next.
  void SetOp(uint64_t client, uint64_t op_index);

  /// Records a fabric span's verb and target node.
  void Annotate(SpanId id, disagg::FabricVerb verb, uint32_t node);

  /// Every span in (slot, index) order. Call once all recording threads
  /// have finished.
  SpanTable Collect() const;

  /// Writes all spans as raw `Span` records after a one-line text header.
  bool WriteTo(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<SpanId> open;  // stack of open spans on this thread
    uint32_t client = 0;
    uint32_t op_index = 0;
  };
  Buffer* Local(uint32_t* slot);

  const uint64_t serial_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// RAII span; a null tracer records nothing (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, SpanKind kind, const disagg::NetContext* ctx,
        SpanId parent = kNoSpan)
      : tracer_(tracer), ctx_(ctx) {
    if (tracer_ != nullptr) id_ = tracer_->Open(kind, ctx, parent);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Close(id_, ctx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  const disagg::NetContext* ctx_;
  SpanId id_ = kNoSpan;
};

/// Times every fabric op as a `kFabric` span under the issuing thread's
/// innermost open span. Pure observer: forwards the op unchanged.
class FabricTimer : public disagg::FabricInterceptor {
 public:
  explicit FabricTimer(Tracer* tracer) : tracer_(tracer) {}
  const char* name() const override { return "perfbench.fabric_timer"; }
  disagg::Status Intercept(disagg::Fabric* fabric, disagg::FabricOp* op,
                           disagg::NetContext* ctx,
                           const disagg::FabricOpInvoker& next) override;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
