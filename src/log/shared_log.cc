#include "log/shared_log.h"

#include <algorithm>

#include "common/coding.h"

namespace disagg {

namespace {
// Modeled CPU cost on the log-tier nodes (mirrors LogStoreService's costs so
// shared vs private log comparisons isolate the *replication topology*, not
// a different per-record price).
constexpr uint64_t kAppendNsPerRecord = 150;
constexpr uint64_t kScanNsPerRecord = 40;
constexpr uint64_t kCtlNs = 100;  // view lookup / install bookkeeping

// Replica set for `tag` under a view, primary first: `members[tag % n]` and
// its `replication - 1` ring successors. Shared by the client and the
// control plane so both always agree on placement.
std::vector<NodeId> TagReplicas(const std::vector<NodeId>& members,
                                LogTag tag, int replication) {
  std::vector<NodeId> out;
  if (members.empty()) return out;
  const size_t n = members.size();
  const size_t p = static_cast<size_t>(tag % n);
  const size_t r = std::min<size_t>(static_cast<size_t>(replication), n);
  for (size_t i = 0; i < r; i++) out.push_back(members[(p + i) % n]);
  return out;
}

// The varint fields every slog request and answer is made of (a batch, if
// any, follows them).
std::string Varints(std::initializer_list<uint64_t> fields) {
  std::string out;
  for (uint64_t f : fields) PutVarint64(&out, f);
  return out;
}
bool GetVarints(Slice* in, std::initializer_list<uint64_t*> fields) {
  for (uint64_t* f : fields) {
    if (!GetVarint64(in, f)) return false;
  }
  return true;
}

// A member list on the wire: its size, then each node id.
void PutMembers(std::string* dst, const std::vector<NodeId>& members) {
  PutVarint64(dst, members.size());
  for (NodeId m : members) PutVarint64(dst, m);
}
bool GetMembers(Slice* in, std::vector<NodeId>* members) {
  uint64_t n = 0, m = 0;
  if (!GetVarint64(in, &n)) return false;
  for (uint64_t i = 0; i < n; i++) {
    if (!GetVarint64(in, &m)) return false;
    members->push_back(static_cast<NodeId>(m));
  }
  return true;
}

// One suffix copy, shared by the backup gap resync and the reconfigure
// refill: reads `tag`'s records after seqnum `from` on `src` and pastes the
// slog.read answer's batch, bytes unchanged, into a slog.replicate to `dest`
// at the same seqnums, with the trim watermark (`trimmed`, `trimmed_lsn`).
// An empty suffix is sent only if `send_empty`. Returns `dest`'s tail
// seqnum, or kInvalidSeqNum when nothing was sent.
Result<SeqNum> CopySuffix(Fabric* fabric, NetContext* ctx, uint64_t epoch,
                          LogTag tag, NodeId src, SeqNum from, NodeId dest,
                          SeqNum trimmed, Lsn trimmed_lsn, bool send_empty) {
  // No LSN bound, the whole suffix.
  const std::string read_req = Varints({epoch, tag, from, 0, ~0ull});
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric->Call(ctx, src, "slog.read", read_req, &resp));
  Slice batch(resp);
  uint64_t base = 0, count = 0;
  if (!GetVarint64(&batch, &base)) return Status::Corruption("slog.read");
  Slice peek = batch;  // the batch's record count, left in place
  if (!GetVarint64(&peek, &count)) return Status::Corruption("slog.read");
  if (count == 0 && !send_empty) return kInvalidSeqNum;
  std::string rep_req = Varints({epoch, tag, base, trimmed, trimmed_lsn});
  rep_req.append(batch.data(), batch.size());
  DISAGG_RETURN_NOT_OK(
      fabric->Call(ctx, dest, "slog.replicate", rep_req, &resp));
  Slice in(resp);
  uint64_t tail = 0;
  if (!GetVarint64(&in, &tail)) return Status::Corruption("slog.replicate");
  return tail;
}
}  // namespace

size_t SharedLogService::TagStore::IndexAfter(SeqNum seq) const {
  const SeqNum before_first = tail_seq - log.size();
  return seq <= before_first ? 0 : std::min(seq - before_first, log.size());
}

Lsn SharedLogService::TagStore::TrimTo(SeqNum up_to) {
  const size_t cut = IndexAfter(up_to);
  const Lsn dropped = cut == 0 ? kInvalidLsn : log.lsn(cut - 1);
  log.DropPrefix(cut);
  trimmed = up_to;
  if (tail_seq < trimmed) tail_seq = trimmed;
  return dropped;
}

// ---------------------------------------------------------------------------
// SharedLogService
// ---------------------------------------------------------------------------

SharedLogService::SharedLogService(Fabric* fabric, const Config& config,
                                   const std::string& name_prefix)
    : fabric_(fabric), config_(config) {
  ctl_node_ =
      fabric_->AddNode(name_prefix + "-ctl", NodeKind::kLog, config_.model);
  fabric_->node(ctl_node_)
      ->RegisterHandler("slog.view", [this](Slice req, std::string* resp,
                                            RpcServerContext* sctx) {
        return HandleView(req, resp, sctx);
      });
  using Handler = Status (SharedLogService::*)(NodeState*, Slice, std::string*,
                                               RpcServerContext*);
  static constexpr std::pair<const char*, Handler> kHandlers[] = {
      {"slog.append", &SharedLogService::HandleAppend},
      {"slog.replicate", &SharedLogService::HandleReplicate},
      {"slog.read", &SharedLogService::HandleRead},
      {"slog.tail", &SharedLogService::HandleTail},
      {"slog.trim", &SharedLogService::HandleTrim},
      {"slog.seal", &SharedLogService::HandleSeal},
      {"slog.install", &SharedLogService::HandleInstall}};
  for (int i = 0; i < config_.log_nodes; i++) {
    auto ns = std::make_unique<NodeState>();
    ns->node = fabric_->AddNode(name_prefix + "-" + std::to_string(i),
                                NodeKind::kLog, config_.model,
                                static_cast<uint32_t>(i));
    fabric_->node(ns->node)->set_cpu_scale(2.0);  // wimpy log-tier CPU
    ns->epoch = 1;
    for (const auto& [method, handler] : kHandlers) {
      fabric_->node(ns->node)->RegisterHandler(
          method, [this, state = ns.get(), h = handler](
                      Slice req, std::string* resp, RpcServerContext* sctx) {
            return (this->*h)(state, req, resp, sctx);
          });
    }
    members_.push_back(ns->node);
    nodes_.push_back(std::move(ns));
  }
  for (auto& ns : nodes_) ns->members = members_;
}

uint64_t SharedLogService::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return epoch_;
}

Status SharedLogService::HandleAppend(NodeState* ns, Slice req,
                                      std::string* resp,
                                      RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag)) {
    return Status::InvalidArgument("malformed slog.append");
  }
  // The whole batch is checked before anything is stored.
  std::vector<EncodedRecord> batch;
  DISAGG_RETURN_NOT_OK(LogRecord::SplitBatch(req, &batch));
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch || ns->epoch <= ns->sealed_epoch) {
    return Status::Aborted("stale or sealed epoch");
  }
  if (ns->members.empty() ||
      ns->members[tag % ns->members.size()] != ns->node) {
    return Status::Aborted("not primary for tag");
  }
  TagStore& ts = ns->tags[tag];
  uint64_t stored = 0;
  for (const EncodedRecord& r : batch) {
    if (r.lsn <= ts.tail_lsn) continue;  // idempotent re-send
    ts.tail_lsn = r.lsn;
    ts.log.Append(r);
    stored++;
  }
  ts.tail_seq += stored;
  const SeqNum base = stored == 0 ? kInvalidSeqNum : ts.tail_seq - stored + 1;
  sctx->ChargeCompute(kAppendNsPerRecord * batch.size());
  *resp = Varints({stored, ts.tail_seq, ts.tail_lsn, base});
  return Status::OK();
}

Status SharedLogService::HandleReplicate(NodeState* ns, Slice req,
                                         std::string* resp,
                                         RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0, base = 0, trimmed = 0, trimmed_lsn = 0;
  if (!GetVarints(&req, {&e, &tag, &base, &trimmed, &trimmed_lsn})) {
    return Status::InvalidArgument("malformed slog.replicate");
  }
  std::vector<EncodedRecord> batch;
  DISAGG_RETURN_NOT_OK(LogRecord::SplitBatch(req, &batch));
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch || ns->epoch <= ns->sealed_epoch) {
    return Status::Aborted("stale or sealed epoch");
  }
  TagStore& ts = ns->tags[tag];
  if (trimmed > ts.trimmed) {
    ts.TrimTo(trimmed);
    ts.trimmed_lsn = std::max(ts.trimmed_lsn, trimmed_lsn);
  }
  for (size_t i = 0; i < batch.size(); i++) {
    const SeqNum seq = base + i;
    if (seq <= ts.tail_seq) continue;    // idempotent re-send
    if (seq != ts.tail_seq + 1) break;   // gap: caller must resync first
    ts.tail_lsn = batch[i].lsn;
    ts.log.Append(batch[i]);
    ts.tail_seq = seq;
  }
  sctx->ChargeCompute(kAppendNsPerRecord * batch.size());
  *resp = Varints({ts.tail_seq});
  return Status::OK();
}

Status SharedLogService::HandleRead(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0, from_seq = 0, from_lsn = 0, max_records = 0;
  if (!GetVarints(&req, {&e, &tag, &from_seq, &from_lsn, &max_records})) {
    return Status::InvalidArgument("malformed slog.read");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch) return Status::Aborted("stale epoch");
  static const TagStore kNoRecords;
  auto it = ns->tags.find(tag);
  const TagStore& ts = it == ns->tags.end() ? kNoRecords : it->second;
  sctx->ChargeCompute(kScanNsPerRecord * std::max<size_t>(1, ts.log.size()));
  // Retention: a range reaching below the trim watermark cannot be served
  // completely — fail loudly instead of silently returning a gapped suffix.
  if (from_seq < ts.trimmed && from_lsn == 0) {
    return Status::NotFound("slog.read below trim point");
  }
  if (from_lsn > 0 && from_lsn < ts.trimmed_lsn) {
    return Status::NotFound("slog.read below trim point");
  }
  const size_t first =
      std::max(ts.IndexAfter(from_seq), ts.log.FirstAfter(from_lsn));
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(max_records, ts.log.size() - first));
  *resp = Varints(
      {n == 0 ? kInvalidSeqNum : ts.tail_seq - ts.log.size() + 1 + first});
  ts.log.AppendBatchTo(first, n, resp);
  return Status::OK();
}

Status SharedLogService::HandleTail(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  uint64_t e = 0, tag = 0;
  if (!GetVarint64(&req, &e) || !GetVarint64(&req, &tag)) {
    return Status::InvalidArgument("malformed slog.tail");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  if (e != ns->epoch) return Status::Aborted("stale epoch");
  sctx->ChargeCompute(kScanNsPerRecord);  // one index probe
  auto it = ns->tags.find(tag);
  *resp = it == ns->tags.end()
              ? Varints({kInvalidSeqNum, kInvalidLsn})
              : Varints({it->second.tail_seq, it->second.tail_lsn});
  return Status::OK();
}

Status SharedLogService::HandleTrim(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  uint64_t tag = 0, up_to = 0;
  if (!GetVarint64(&req, &tag) || !GetVarint64(&req, &up_to)) {
    return Status::InvalidArgument("malformed slog.trim");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  TagStore& ts = ns->tags[tag];
  sctx->ChargeCompute(kScanNsPerRecord * std::max<size_t>(1, ts.log.size()));
  if (up_to > ts.trimmed) {
    ts.trimmed_lsn = std::max(ts.trimmed_lsn, ts.TrimTo(up_to));
  }
  resp->clear();
  return Status::OK();
}

Status SharedLogService::HandleSeal(NodeState* ns, Slice req,
                                    std::string* resp, RpcServerContext* sctx) {
  (void)req;  // seals whatever epoch the node is in (idempotent)
  std::lock_guard<std::mutex> lock(ns->mu);
  ns->sealed_epoch = std::max(ns->sealed_epoch, ns->epoch);
  sctx->ChargeCompute(kCtlNs + kScanNsPerRecord * ns->tags.size());
  *resp = Varints({ns->epoch, ns->tags.size()});
  for (const auto& [tag, ts] : ns->tags) {
    *resp += Varints(
        {tag, ts.tail_seq, ts.tail_lsn, ts.trimmed, ts.trimmed_lsn});
  }
  return Status::OK();
}

Status SharedLogService::HandleInstall(NodeState* ns, Slice req,
                                       std::string* resp,
                                       RpcServerContext* sctx) {
  uint64_t e = 0;
  std::vector<NodeId> members;
  if (!GetVarint64(&req, &e) || !GetMembers(&req, &members)) {
    return Status::InvalidArgument("malformed slog.install");
  }
  std::lock_guard<std::mutex> lock(ns->mu);
  ns->epoch = e;  // > sealed_epoch, so the node is open for the new view
  ns->members = std::move(members);
  sctx->ChargeCompute(kCtlNs);
  resp->clear();
  return Status::OK();
}

Status SharedLogService::HandleView(Slice req, std::string* resp,
                                    RpcServerContext* sctx) {
  (void)req;
  std::lock_guard<std::mutex> lock(view_mu_);
  sctx->ChargeCompute(kCtlNs);
  *resp = Varints({epoch_, static_cast<uint64_t>(config_.replication),
                   static_cast<uint64_t>(config_.write_quorum)});
  PutMembers(resp, members_);
  return Status::OK();
}

Status SharedLogService::SealAndReconfigure(NetContext* ctx) {
  // 1. The new membership: every currently-live log node (crashed nodes
  //    drop out, revived ones rejoin and get re-filled below).
  std::vector<NodeState*> live;
  for (auto& ns : nodes_) {
    if (!fabric_->node(ns->node)->failed()) live.push_back(ns.get());
  }
  if (live.empty()) return Status::Unavailable("no live log nodes");

  // 2. Seal every live node and collect its per-tag tails. The response
  //    carries the node's current epoch so a re-run after a partial,
  //    failed reconfigure still picks a strictly newer epoch.
  struct TailInfo {
    SeqNum tail = kInvalidSeqNum;
    Lsn tail_lsn = kInvalidLsn;
    SeqNum trimmed = kInvalidSeqNum;
    Lsn trimmed_lsn = kInvalidLsn;
  };
  std::map<LogTag, std::map<NodeId, TailInfo>> tails;
  uint64_t max_epoch = epoch();
  for (NodeState* ns : live) {
    std::string resp;
    DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, ns->node, "slog.seal", "", &resp));
    Slice in(resp);
    uint64_t node_epoch = 0, ntags = 0;
    if (!GetVarints(&in, {&node_epoch, &ntags})) {
      return Status::Corruption("slog.seal response");
    }
    max_epoch = std::max(max_epoch, node_epoch);
    for (uint64_t i = 0; i < ntags; i++) {
      uint64_t tag = 0;
      TailInfo info;
      if (!GetVarints(&in, {&tag, &info.tail, &info.tail_lsn, &info.trimmed,
                            &info.trimmed_lsn})) {
        return Status::Corruption("slog.seal response");
      }
      tails[tag][ns->node] = info;
    }
  }
  const uint64_t new_epoch = max_epoch + 1;
  std::vector<NodeId> new_members;
  for (NodeState* ns : live) new_members.push_back(ns->node);

  // 3. Install the new view on every live node (opens them for new_epoch).
  std::string inst = Varints({new_epoch});
  PutMembers(&inst, new_members);
  for (NodeState* ns : live) {
    std::string resp;
    DISAGG_RETURN_NOT_OK(
        fabric_->Call(ctx, ns->node, "slog.install", inst, &resp));
  }

  // 4. Recover each tag: its tail is the max across live nodes (suffixes
  //    acked by fewer than write_quorum nodes may survive — that is the
  //    WAL's maybe-committed region and is safe to keep), and every replica
  //    in the tag's new placement is brought up to that tail.
  for (const auto& [tag, per_node] : tails) {
    const auto& [src, best] = *std::max_element(
        per_node.begin(), per_node.end(), [](const auto& a, const auto& b) {
          return a.second.tail < b.second.tail;
        });
    const std::vector<NodeId> replicas =
        TagReplicas(new_members, tag, config_.replication);
    for (NodeId dest : replicas) {
      TailInfo dinfo;
      auto it = per_node.find(dest);
      if (it != per_node.end()) dinfo = it->second;
      if (dest == src || dinfo.tail >= best.tail) continue;
      // The watermark travels with the suffix; an empty suffix is only
      // worth sending to move it.
      auto copied = CopySuffix(fabric_, ctx, new_epoch, tag, src,
                               std::max(dinfo.tail, best.trimmed), dest,
                               best.trimmed, best.trimmed_lsn,
                               /*send_empty=*/best.trimmed > dinfo.trimmed);
      if (!copied.ok()) return copied.status();
    }
  }

  // 5. Publish the new view; clients pick it up via slog.view on their
  //    next Aborted epoch check.
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    epoch_ = new_epoch;
    members_ = new_members;
  }
  return Status::OK();
}

size_t SharedLogService::CountDurable(LogTag tag, Lsn lsn) const {
  size_t count = 0;
  for (const auto& ns : nodes_) {
    if (fabric_->node(ns->node)->failed()) continue;
    std::lock_guard<std::mutex> lock(ns->mu);
    auto it = ns->tags.find(tag);
    if (it != ns->tags.end() && it->second.tail_lsn >= lsn) count++;
  }
  return count;
}

SeqNum SharedLogService::DebugTailSeqnum(LogTag tag) const {
  SeqNum tail = kInvalidSeqNum;
  for (const auto& ns : nodes_) {
    std::lock_guard<std::mutex> lock(ns->mu);
    auto it = ns->tags.find(tag);
    if (it != ns->tags.end()) tail = std::max(tail, it->second.tail_seq);
  }
  return tail;
}

// ---------------------------------------------------------------------------
// SharedLogClient
// ---------------------------------------------------------------------------

Status SharedLogClient::EnsureView(NetContext* ctx) {
  if (!view_.members.empty()) return Status::OK();
  return RefreshView(ctx);
}

Status SharedLogClient::RefreshView(NetContext* ctx) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, ctl_, "slog.view", "", &resp));
  Slice in(resp);
  uint64_t repl = 0, w = 0;
  View v;
  if (!GetVarints(&in, {&v.epoch, &repl, &w}) || !GetMembers(&in, &v.members)) {
    return Status::Corruption("slog.view response");
  }
  v.replication = static_cast<int>(repl);
  v.write_quorum = static_cast<int>(w);
  view_ = std::move(v);
  return Status::OK();
}

std::vector<NodeId> SharedLogClient::ReplicasFor(LogTag tag) const {
  return TagReplicas(view_.members, tag, view_.replication);
}

Status SharedLogClient::PrimaryAttempt(NetContext* ctx, LogTag tag,
                                       const std::string& method, Slice body,
                                       std::string* resp, bool* retry) {
  *retry = false;
  DISAGG_RETURN_NOT_OK(EnsureView(ctx));
  const std::vector<NodeId> replicas = ReplicasFor(tag);
  if (replicas.empty()) return Status::Unavailable("shared log: empty view");
  std::string req = Varints({view_.epoch, tag});
  req.append(body.data(), body.size());
  Status st = fabric_->Call(ctx, replicas[0], method, req, resp);
  // Epoch staleness and primary crashes are view problems: refresh and
  // retry, since a reconfigure will have installed a new primary for the
  // tag. Everything else (NotFound below trim, TimedOut, ...) is the
  // caller's answer.
  if (st.ok() || (!st.IsAborted() && !st.IsUnavailable())) return st;
  DISAGG_RETURN_NOT_OK(RefreshView(ctx));
  *retry = true;
  return st;
}

Status SharedLogClient::CallPrimary(NetContext* ctx, LogTag tag,
                                    const std::string& method, Slice body,
                                    std::string* resp) {
  Status st;
  bool retry = true;
  for (int attempt = 0; attempt < 3 && retry; attempt++) {
    st = PrimaryAttempt(ctx, tag, method, body, resp, &retry);
  }
  return st;
}

Result<Lsn> SharedLogClient::Append(NetContext* ctx, LogTag tag,
                                    const std::vector<LogRecord>& records) {
  const std::string batch = LogRecord::EncodeBatch(records);
  Status last = Status::Unavailable("shared log: no view");
  for (int attempt = 0; attempt < 3; attempt++) {
    std::string resp;
    bool retry = false;
    Status st = PrimaryAttempt(ctx, tag, "slog.append", batch, &resp, &retry);
    if (!st.ok()) {
      if (!retry) return st;
      last = st;
      continue;
    }
    Slice in(resp);
    uint64_t stored = 0, tail_seq = 0, tail_lsn = 0, base = 0;
    if (!GetVarints(&in, {&stored, &tail_seq, &tail_lsn, &base})) {
      return Status::Corruption("slog.append response");
    }
    // The primary deduplicated a (possibly complete) prefix; backups get
    // exactly the stored suffix at the assigned seqnums, cut from `batch`.
    // A fully-deduped re-send (stored == 0) may sit on the primary alone —
    // left there by an earlier attempt that died below the write quorum —
    // so the fan-out runs regardless: an empty suffix acts as a tail probe,
    // and the gap resync pulls whatever a lagging backup is missing from
    // the primary. Returning early on duplicates would declare one copy
    // durable.
    size_t skip = VarintLength(records.size());
    for (size_t i = 0; i + stored < records.size(); i++) {
      skip += records[i].EncodedSize();
    }
    // No trim watermark on the append path.
    std::string rep_req = Varints({view_.epoch, tag, base, 0, 0, stored});
    rep_req.append(batch, skip, std::string::npos);

    const std::vector<NodeId> replicas = ReplicasFor(tag);
    auto replicate_to = [&](NetContext* bctx, NodeId backup) -> bool {
      std::string rep_resp;
      if (!fabric_->Call(bctx, backup, "slog.replicate", rep_req, &rep_resp)
               .ok()) {
        return false;
      }
      Slice rin(rep_resp);
      uint64_t btail = 0;
      if (!GetVarint64(&rin, &btail)) return false;
      if (btail >= tail_seq) return true;
      // The backup is behind (it missed earlier batches): copy the gap
      // from the primary.
      auto copied = CopySuffix(fabric_, bctx, view_.epoch, tag, replicas[0],
                               btail, backup, 0, 0, /*send_empty=*/true);
      return copied.ok() && *copied >= tail_seq;
    };

    int acks = 1;  // the primary's copy
    const size_t nbackups = replicas.size() - 1;
    if (nbackups > 0) {
      std::vector<NetContext> branch(nbackups, ctx->Fork());
      for (size_t i = 0; i < nbackups; i++) {
        if (replicate_to(&branch[i], replicas[i + 1])) acks++;
      }
      JoinParallel(ctx, branch.data(), nbackups);
    }
    if (acks >= view_.write_quorum) return static_cast<Lsn>(tail_lsn);
    last = Status::Unavailable("shared log: append below write quorum");
    DISAGG_RETURN_NOT_OK(RefreshView(ctx));
  }
  return last;
}

Result<std::vector<LogRecord>> SharedLogClient::Read(NetContext* ctx,
                                                     LogTag tag,
                                                     SeqNum from_seq,
                                                     Lsn from_lsn,
                                                     uint64_t max_records) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(CallPrimary(ctx, tag, "slog.read",
                                   Varints({from_seq, from_lsn, max_records}),
                                   &resp));
  Slice in(resp);
  uint64_t base = 0;
  if (!GetVarint64(&in, &base)) return Status::Corruption("slog.read response");
  return LogRecord::DecodeBatch(in);
}

Result<SharedLogClient::TagTail> SharedLogClient::Tail(NetContext* ctx,
                                                       LogTag tag) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(CallPrimary(ctx, tag, "slog.tail", "", &resp));
  Slice in(resp);
  TagTail t;
  if (!GetVarints(&in, {&t.seqnum, &t.lsn})) {
    return Status::Corruption("slog.tail response");
  }
  return t;
}

Result<SeqNum> SharedLogClient::TailSeqnum(NetContext* ctx, LogTag tag) {
  DISAGG_ASSIGN_OR_RETURN(TagTail t, Tail(ctx, tag));
  return t.seqnum;
}

Status SharedLogClient::Trim(NetContext* ctx, LogTag tag,
                             SeqNum up_to_inclusive) {
  DISAGG_RETURN_NOT_OK(EnsureView(ctx));
  const std::string req = Varints({tag, up_to_inclusive});
  const std::vector<NodeId> replicas = ReplicasFor(tag);
  if (replicas.empty()) return Status::Unavailable("shared log: empty view");
  size_t oks = 0;
  Status last = Status::OK();
  for (NodeId r : replicas) {
    std::string resp;
    Status ts = fabric_->Call(ctx, r, "slog.trim", req, &resp);
    if (ts.ok()) {
      oks++;
    } else {
      last = ts;  // best effort: a crashed replica catches up at reconfigure
    }
  }
  return oks > 0 ? Status::OK() : last;
}

}  // namespace disagg
