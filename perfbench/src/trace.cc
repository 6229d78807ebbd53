#include "trace.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_serial{1};

// The calling thread's buffer in the tracer identified by `serial`. A new
// tracer (new serial) makes every thread register a fresh buffer.
struct ThreadSlot {
  uint64_t serial = 0;
  void* buffer = nullptr;
  uint32_t slot = 0;
};
thread_local ThreadSlot tls_slot;

constexpr uint64_t kIndexMask = 0xffffffffu;

}  // namespace

Tracer::Tracer()
    : serial_(g_next_serial.fetch_add(1)),
      start_(std::chrono::steady_clock::now()) {}

Tracer::Buffer* Tracer::Local(uint32_t* slot) {
  if (tls_slot.serial != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 16);
    tls_slot = ThreadSlot{serial_, buffers_.back().get(),
                          static_cast<uint32_t>(buffers_.size() - 1)};
  }
  *slot = tls_slot.slot;
  return static_cast<Buffer*>(tls_slot.buffer);
}

SpanId Tracer::Open(SpanKind kind, const disagg::NetContext* ctx,
                    SpanId parent) {
  uint32_t slot = 0;
  Buffer* b = Local(&slot);
  Span s;
  s.kind = kind;
  s.client = b->client;
  s.op_index = b->op_index;
  if (parent == kNoSpan && !b->open.empty()) parent = b->open.back();
  s.parent = parent;
  if (ctx != nullptr) {
    // Start values; Close turns them into deltas.
    s.sim_ns = ctx->sim_ns;
    s.aux = static_cast<uint32_t>(ctx->round_trips);
  }
  const SpanId id = (static_cast<uint64_t>(slot) << 32) | b->spans.size();
  s.start_ns = NowNs();
  b->spans.push_back(s);
  b->open.push_back(id);
  return id;
}

void Tracer::Close(SpanId id, const disagg::NetContext* ctx) {
  const uint64_t now = NowNs();
  uint32_t slot = 0;
  Buffer* b = Local(&slot);
  Span& s = b->spans[id & kIndexMask];
  s.end_ns = now;
  if (ctx != nullptr) {
    s.sim_ns = ctx->sim_ns - s.sim_ns;
    s.aux = static_cast<uint32_t>(ctx->round_trips) - s.aux;
  }
  b->open.pop_back();
}

void Tracer::SetOp(uint64_t client, uint64_t op_index) {
  uint32_t slot = 0;
  Buffer* b = Local(&slot);
  b->client = static_cast<uint32_t>(client);
  b->op_index = static_cast<uint32_t>(op_index);
}

void Tracer::Annotate(SpanId id, disagg::FabricVerb verb, uint32_t node) {
  uint32_t slot = 0;
  Span& s = Local(&slot)->spans[id & kIndexMask];
  s.verb = static_cast<uint8_t>(verb);
  s.aux = node;
}

SpanTable Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTable t;
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  t.spans.reserve(n);
  for (const auto& b : buffers_) {
    t.offsets.push_back(t.spans.size());
    t.spans.insert(t.spans.end(), b->spans.begin(), b->spans.end());
  }
  return t;
}

bool Tracer::WriteTo(const std::string& path) const {
  const SpanTable t = Collect();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // Header: record count and size, then the raw records. `parent` is a
  // SpanId: (buffer << 32) | index, resolved through the offsets line.
  std::fprintf(f, "perfbench-spans v1 records=%zu record_bytes=%zu offsets=",
               t.spans.size(), sizeof(Span));
  for (size_t i = 0; i < t.offsets.size(); i++) {
    std::fprintf(f, i == 0 ? "%zu" : ",%zu", t.offsets[i]);
  }
  std::fputc('\n', f);
  const size_t wrote =
      std::fwrite(t.spans.data(), sizeof(Span), t.spans.size(), f);
  return std::fclose(f) == 0 && wrote == t.spans.size();
}

disagg::Status FabricTimer::Intercept(disagg::Fabric* fabric,
                                      disagg::FabricOp* op,
                                      disagg::NetContext* ctx,
                                      const disagg::FabricOpInvoker& next) {
  (void)fabric;
  const SpanId id = tracer_->Open(SpanKind::kFabric, ctx);
  disagg::Status st = next(op, ctx);
  tracer_->Close(id, ctx);
  tracer_->Annotate(id, op->verb, op->node);
  return st;
}

}  // namespace perfbench
