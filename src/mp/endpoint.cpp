#include "mp/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "buf/copy.hpp"

namespace meshmp::mp {

using hw::Cpu;
using sim::Task;

namespace {

/// Unique id for an mp-layer async trace span (rank + per-endpoint counter).
std::uint64_t mp_span_id(int rank, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 40) |
         (seq & 0xff'ffff'ffffull);
}

}  // namespace

Endpoint::Endpoint(via::KernelAgent& agent, CoreParams params)
    : agent_(agent),
      params_(params),
      audit_reg_(chk::Audit::instance().watch("mp.endpoint",
                                              [this] { audit_quiesce(); })),
      metrics_reg_(
          obs::Registry::instance().attach("mp.endpoint", &counters_)),
      eager_bytes_hist_(obs::Registry::instance().histogram("mp.eager_bytes")),
      rndv_bytes_hist_(obs::Registry::instance().histogram("mp.rndv_bytes")) {
  unexpected_arrived_ = std::make_unique<sim::Signal>(engine());
  agent_.listen(params_.service);
  accept_task_ = accept_loop();
}

void Endpoint::audit_quiesce() const {
  const std::string who = "rank " + std::to_string(agent_.node_id()) + ": ";
  for (const auto& [dst, ch] : out_) {
    if (ch->vi == nullptr) continue;
    if (ch->tokens < 0 || ch->tokens > params_.tokens) {
      chk::Audit::instance().fail(
          "mp.endpoint", who + "channel to rank " + std::to_string(dst) +
                             " holds " + std::to_string(ch->tokens) +
                             " tokens, outside [0, " +
                             std::to_string(params_.tokens) + "]");
    }
  }
  if (!pending_rndv_.empty()) {
    chk::Audit::instance().fail(
        "mp.endpoint", who + std::to_string(pending_rndv_.size()) +
                           " rendezvous send(s) never matched at quiesce");
  }
  if (!rndv_recv_.empty()) {
    chk::Audit::instance().fail(
        "mp.endpoint", who + std::to_string(rndv_recv_.size()) +
                           " rendezvous receive(s) never finished at quiesce");
  }
}

std::optional<Endpoint::ProbeResult> Endpoint::iprobe(int src, int tag,
                                                      int tag_mask) {
  for (const Unexpected& u : unexpected_) {
    const bool src_ok = src == kAny || src == u.src;
    const bool tag_ok = tag_matches(tag, tag_mask, u.tag);
    if (!src_ok || !tag_ok) continue;
    ProbeResult r;
    r.src = u.src;
    r.tag = u.tag;
    r.bytes = u.is_rts ? static_cast<std::int64_t>(u.rts_size)
                       : static_cast<std::int64_t>(u.data.size());
    return r;
  }
  return std::nullopt;
}

sim::Task<Endpoint::ProbeResult> Endpoint::probe(int src, int tag,
                                                 int tag_mask) {
  for (;;) {
    if (auto r = iprobe(src, tag, tag_mask)) co_return *r;
    co_await unexpected_arrived_->next();
  }
}

// --------------------------------------------------------------------------
// Channel management and flow control
// --------------------------------------------------------------------------

Task<Endpoint::OutChannel*> Endpoint::out_channel(int dst) {
  auto it = out_.find(dst);
  if (it == out_.end()) {
    it = out_.emplace(dst, std::make_unique<OutChannel>(engine())).first;
  }
  OutChannel& ch = *it->second;
  if (ch.vi != nullptr) co_return &ch;
  if (ch.dialing) {
    co_await ch.dialed.wait();
    co_return &ch;
  }
  ch.dialing = true;
  ch.vi = co_await agent_.connect(dst, params_.service);
  ch.tokens = params_.tokens;
  out_by_vi_[ch.vi->id()] = &ch;
  // Reliable delivery giving up on this VI (retry budget exhausted) fails
  // the whole channel: blocked senders wake and report kUnreachable.
  ch.vi->set_error_handler([this, dst](via::Vi&, via::ViError) {
    auto cit = out_.find(dst);
    if (cit != out_.end()) fail_channel(dst, *cit->second);
  });
  if (ch.vi->failed()) fail_channel(dst, ch);  // dial itself timed out
  ch.dialed.fire();
  counters_.inc("channels_dialed");
  co_return &ch;
}

Task<bool> Endpoint::take_token(OutChannel& ch) {
  while (ch.tokens == 0 && !ch.failed) {
    counters_.inc("token_stalls");
    co_await ch.token_ready.next();
  }
  if (ch.failed) co_return false;
  --ch.tokens;
  co_return true;
}

void Endpoint::fail_channel(int dst, OutChannel& ch) {
  if (ch.failed) return;
  ch.failed = true;
  counters_.inc("channels_failed");
  // Wake token waiters so they observe the failure instead of stalling.
  ch.token_ready.notify_all();
  // Rendezvous sends to this peer will never see an RTR; complete them with
  // the error so their callers return instead of hanging.
  for (auto& [id, p] : pending_rndv_) {
    if (p->dst != dst || p->failed) continue;
    p->failed = true;
    p->matched->fire();
  }
}

void Endpoint::reset_peer(int dst) {
  auto it = out_.find(dst);
  if (it == out_.end()) return;
  OutChannel& ch = *it->second;
  if (!ch.failed) return;
  if (ch.vi != nullptr) {
    auto vit = out_by_vi_.find(ch.vi->id());
    if (vit != out_by_vi_.end() && vit->second == &ch) out_by_vi_.erase(vit);
  }
  retired_.push_back(std::move(it->second));
  out_.erase(it);
  counters_.inc("channels_reset");
}

void Endpoint::piggyback_credits(int peer, Imm& imm) {
  auto it = in_.find(peer);
  if (it == in_.end()) return;
  for (auto& in : it->second) {
    if (in->returnable > 0) {
      imm.credits = static_cast<std::uint16_t>(in->returnable);
      imm.credit_vi = static_cast<std::uint16_t>(in->vi->remote_vi());
      in->returnable = 0;
      counters_.inc("credits_piggybacked", imm.credits);
      return;
    }
  }
}

void Endpoint::apply_credits(const Imm& imm) {
  if (imm.credits == 0) return;
  auto it = out_by_vi_.find(imm.credit_vi);
  if (it == out_by_vi_.end()) return;
  it->second->tokens += imm.credits;
  it->second->token_ready.notify_all();
}

Task<> Endpoint::maybe_return_credits(int peer, InVi& in) {
  // Repost the consumed descriptor right away, then decide whether the
  // accumulated credits warrant an explicit credit message.
  in.vi->post_recv(params_.eager_threshold + 64);
  ++in.returnable;
  if (in.returnable < params_.credit_return_threshold) co_return;
  OutChannel& ch = *co_await out_channel(peer);
  if (ch.failed) co_return;  // peer unreachable: credits are moot
  Imm imm;
  imm.kind = WireKind::kCredit;
  imm.credits = static_cast<std::uint16_t>(in.returnable);
  imm.credit_vi = static_cast<std::uint16_t>(in.vi->remote_vi());
  in.returnable = 0;
  counters_.inc("credits_explicit", imm.credits);
  // Credit messages bypass token flow control (they are what replenishes
  // it); the receiver's control_slack descriptors absorb them.
  try {
    co_await ch.vi->send(buf::Slice{}, imm.pack());
  } catch (const std::logic_error&) {
    // VI failed while this pump-side send was queued; nothing to credit.
  }
}

// --------------------------------------------------------------------------
// Send path
// --------------------------------------------------------------------------

Task<SendStatus> Endpoint::send(int dst, int tag, std::vector<std::byte> data) {
  co_return co_await send(dst, tag,
                          buf::Pool::instance().adopt(std::move(data)));
}

Task<SendStatus> Endpoint::send(int dst, int tag, buf::Slice data) {
  if (tag < 0 || tag > kMaxTag) {
    throw std::invalid_argument("Endpoint::send: tag out of range");
  }
  if (dst < 0 || dst >= agent_.torus().size()) {
    throw std::invalid_argument("Endpoint::send: bad destination rank");
  }
  if (dst == rank()) {
    co_await deliver_local(tag, std::move(data));
    co_return SendStatus::kOk;
  }

  // Quorum fail-fast: a minority side must not open new channels on its
  // half-machine view. Channels established before the partition keep
  // working (or die through the failure detector) — only fresh dials and
  // collectives are refused.
  if (agent_.minority() && !out_.contains(dst)) {
    counters_.inc("send_minority_rejected");
    agent_.note_minority_refusal();
    co_return SendStatus::kMinorityPartition;
  }

  auto& cpu = agent_.node().cpu();
  const auto size = static_cast<std::int64_t>(data.size());
  OutChannel& ch = *co_await out_channel(dst);
  if (ch.failed) {
    if (ch.vi != nullptr &&
        ch.vi->error() == via::ViError::kMinorityPartition) {
      counters_.inc("send_minority_rejected");
      co_return SendStatus::kMinorityPartition;
    }
    counters_.inc("send_unreachable");
    co_return SendStatus::kUnreachable;
  }

  if (size < params_.eager_threshold) {
    eager_bytes_hist_.add(size);
    const std::uint64_t span =
        mp_span_id(rank(), ++trace_send_seq_);
    MESHMP_TRACE_ASYNC_SCOPE(engine(), obs::Cat::kMp, rank(), "eager_send",
                             span);
    if (!co_await take_token(ch)) {
      counters_.inc("send_unreachable");
      co_return SendStatus::kUnreachable;
    }
    // Copy #1 of the eager path: user buffer -> pre-registered bounce.
    co_await buf::charge_copy(cpu, size, /*hot=*/true);
    Imm imm;
    imm.kind = WireKind::kEager;
    imm.tag = static_cast<std::uint32_t>(tag);
    piggyback_credits(dst, imm);
    counters_.inc("eager_tx");
    try {
      co_await ch.vi->send(std::move(data), imm.pack());
    } catch (const std::logic_error&) {
      // The VI failed between the channel check and the post.
      counters_.inc("send_unreachable");
      co_return SendStatus::kUnreachable;
    }
    co_return SendStatus::kOk;
  }

  // Rendezvous: announce, wait for the receiver's RTR (sender-side matched
  // by id), RMA-write, FIN.
  rndv_bytes_hist_.add(size);
  const std::uint64_t span =
      mp_span_id(rank(), ++trace_send_seq_);
  MESHMP_TRACE_ASYNC_SCOPE(engine(), obs::Cat::kMp, rank(), "rndv_send", span);
  const std::uint32_t id = (next_rndv_id_++ & 0xffffffu);
  auto pr = std::make_shared<PendingRndvSend>();
  pr->data = std::move(data);
  pr->dst = dst;
  pr->matched = std::make_unique<sim::Trigger>(engine());
  pending_rndv_.emplace(id, pr);

  if (!co_await take_token(ch)) {
    pending_rndv_.erase(id);
    counters_.inc("send_unreachable");
    co_return SendStatus::kUnreachable;
  }
  Imm imm;
  imm.kind = WireKind::kRts;
  imm.tag = static_cast<std::uint32_t>(tag);
  piggyback_credits(dst, imm);
  counters_.inc("rts_tx");
  try {
    co_await ch.vi->send(
        serialize(RtsBody{static_cast<std::uint64_t>(size), id, tag}),
        imm.pack());
  } catch (const std::logic_error&) {
    pending_rndv_.erase(id);
    counters_.inc("send_unreachable");
    co_return SendStatus::kUnreachable;
  }
  co_await pr->matched->wait();
  const bool failed = pr->failed;
  pending_rndv_.erase(id);
  if (failed) {
    counters_.inc("send_unreachable");
    co_return SendStatus::kUnreachable;
  }
  co_return SendStatus::kOk;
}

Task<> Endpoint::handle_rtr(int src, const RtrBody& rtr) {
  auto it = pending_rndv_.find(rtr.id);
  if (it == pending_rndv_.end()) {
    counters_.inc("rtr_unmatched");
    co_return;
  }
  auto pr = it->second;  // keep alive across awaits even if the send bails
  assert(pr->dst == src);
  OutChannel& ch = *co_await out_channel(src);
  if (ch.failed || pr->failed) co_return;
  via::MemToken token;
  token.node = src;
  token.handle = rtr.handle;
  token.key = rtr.key;
  token.bytes = rtr.bytes;
  counters_.inc("rndv_rma_tx");
  try {
    co_await ch.vi->rma_write(pr->data, token, 0);
    if (!co_await take_token(ch)) co_return;
    Imm imm;
    imm.kind = WireKind::kFin;
    imm.tag = rtr.id;
    piggyback_credits(src, imm);
    co_await ch.vi->send(buf::Slice{}, imm.pack());
  } catch (const std::logic_error&) {
    co_return;  // VI failed mid-protocol; fail_channel completes the send
  }
  // The buffer is consumed and the receive is known to be posted: the send
  // completes with the paper's synchronous-RMA semantics.
  pr->matched->fire();
}

Task<> Endpoint::deliver_local(int tag, buf::Slice data) {
  auto& cpu = agent_.node().cpu();
  const auto size = static_cast<std::int64_t>(data.size());
  // One modeled copy from the sender's buffer into the receiver's; the
  // to_vector materialization below is the host movement it accounts for.
  co_await buf::charge_copy(cpu, size, size <= cpu.host().cache_bytes);
  counters_.inc("self_tx");
  if (auto posted = match_posted(rank(), tag)) {
    complete(*posted, Message{rank(), tag, data.to_vector()});
    co_return;
  }
  Unexpected u;
  u.src = rank();
  u.tag = tag;
  u.data = data.to_vector();
  unexpected_.push_back(std::move(u));
  unexpected_arrived_->notify_all();
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

std::shared_ptr<Endpoint::PostedRecv> Endpoint::match_posted(int src,
                                                             int tag) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    PostedRecv& p = **it;
    const bool src_ok = p.src == kAny || p.src == src;
    const bool tag_ok = tag_matches(p.tag, p.tag_mask, tag);
    if (src_ok && tag_ok) {
      auto sp = *it;
      posted_.erase(it);
      return sp;
    }
  }
  return nullptr;
}

void Endpoint::complete(PostedRecv& posted, Message msg) {
  posted.msg = std::move(msg);
  posted.done = true;
  posted.ready->fire();
}

void Endpoint::cancel_posted_recvs(int src) {
  for (auto it = posted_.begin(); it != posted_.end();) {
    if (src != kAny && (*it)->src != src) {
      ++it;
      continue;
    }
    auto sp = *it;
    it = posted_.erase(it);
    Message msg;
    msg.src = sp->src;
    msg.tag = sp->tag;
    msg.ok = false;
    complete(*sp, std::move(msg));
    counters_.inc("recvs_cancelled");
  }
}

Task<Message> Endpoint::recv(int src, int tag, int tag_mask) {
  // Look at unexpected messages first, in arrival order.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    const bool src_ok = src == kAny || src == it->src;
    const bool tag_ok = tag_matches(tag, tag_mask, it->tag);
    if (!src_ok || !tag_ok) continue;
    Unexpected u = std::move(*it);
    unexpected_.erase(it);
    if (!u.is_rts) {
      // Copy #2 of the eager path: bounce buffer -> user buffer.
      auto& cpu = agent_.node().cpu();
      co_await buf::charge_copy(cpu, static_cast<std::int64_t>(u.data.size()),
                                /*hot=*/true);
      counters_.inc("recv_from_unexpected");
      co_return Message{u.src, u.tag, std::move(u.data)};
    }
    // An unexpected rendezvous announcement: issue the RTR now and wait.
    auto posted = std::make_shared<PostedRecv>();
    posted->src = src;
    posted->tag = tag;
    posted->tag_mask = tag_mask;
    posted->ready = std::make_unique<sim::Trigger>(engine());
    co_await issue_rtr(posted, u.src, u.rts_id, u.rts_size, u.tag);
    co_await posted->ready->wait();
    co_return std::move(posted->msg);
  }

  auto posted = std::make_shared<PostedRecv>();
  posted->src = src;
  posted->tag = tag;
  posted->tag_mask = tag_mask;
  posted->ready = std::make_unique<sim::Trigger>(engine());
  posted_.push_back(posted);
  co_await posted->ready->wait();
  co_return std::move(posted->msg);
}

Task<> Endpoint::handle_eager(int src, int tag, std::vector<std::byte> data) {
  if (auto posted = match_posted(src, tag)) {
    // Copy #2 of the eager path, charged at user priority.
    auto& cpu = agent_.node().cpu();
    co_await buf::charge_copy(cpu, static_cast<std::int64_t>(data.size()),
                              /*hot=*/true);
    complete(*posted, Message{src, tag, std::move(data)});
    co_return;
  }
  Unexpected u;
  u.src = src;
  u.tag = tag;
  u.data = std::move(data);
  unexpected_.push_back(std::move(u));
  counters_.inc("unexpected_eager");
  MESHMP_TRACE_INSTANT_ARG(engine(), obs::Cat::kMp, rank(), "unexpected_eager",
                           "src", src);
  unexpected_arrived_->notify_all();
}

Task<> Endpoint::handle_rts(int src, const RtsBody& rts) {
  MESHMP_TRACE_INSTANT_ARG(engine(), obs::Cat::kMp, rank(), "rts_rx", "bytes",
                           rts.size);
  if (auto posted = match_posted(src, rts.tag)) {
    co_await issue_rtr(posted, src, rts.id, rts.size, rts.tag);
    co_return;
  }
  Unexpected u;
  u.src = src;
  u.tag = rts.tag;
  u.is_rts = true;
  u.rts_id = rts.id;
  u.rts_size = rts.size;
  unexpected_.push_back(u);
  counters_.inc("unexpected_rts");
  unexpected_arrived_->notify_all();
}

Task<> Endpoint::issue_rtr(std::shared_ptr<PostedRecv> posted, int src,
                           std::uint32_t id, std::uint64_t size, int tag) {
  RndvRecv state;
  state.token = agent_.memory().register_region(size);
  state.posted = std::move(posted);
  state.src = src;
  state.size = size;
  state.tag = tag;
  const auto key = rndv_key(src, id);
  OutChannel& ch = *co_await out_channel(src);
  RtrBody body;
  body.id = id;
  body.handle = state.token.handle;
  body.key = state.token.key;
  body.bytes = state.token.bytes;
  rndv_recv_.emplace(key, std::move(state));
  bool sent = co_await take_token(ch);
  if (sent) {
    Imm imm;
    imm.kind = WireKind::kRtr;
    piggyback_credits(src, imm);
    counters_.inc("rtr_tx");
    try {
      co_await ch.vi->send(serialize(body), imm.pack());
    } catch (const std::logic_error&) {
      sent = false;
    }
  }
  if (!sent) {
    // The reverse channel died: the RTR cannot reach the sender, so the
    // rendezvous will never finish. Drop the state (the posted receive stays
    // pending, like a receive whose sender never existed).
    counters_.inc("rtr_undeliverable");
    auto st = rndv_recv_.find(key);
    if (st != rndv_recv_.end()) {
      agent_.memory().deregister(st->second.token.handle);
      rndv_recv_.erase(st);
    }
  }
}

Task<> Endpoint::handle_fin(int src, std::uint32_t id) {
  MESHMP_TRACE_INSTANT_ARG(engine(), obs::Cat::kMp, rank(), "fin_rx", "src",
                           src);
  auto it = rndv_recv_.find(rndv_key(src, id));
  if (it == rndv_recv_.end()) {
    counters_.inc("fin_unmatched");
    co_return;
  }
  RndvRecv state = std::move(it->second);
  rndv_recv_.erase(it);
  // Handing the registered region to the user is zero-copy in the real
  // implementation; steal its storage outright so the host does not copy
  // either. The RMA write into the region was the one modeled copy.
  Message msg;
  msg.src = src;
  msg.tag = state.tag;
  msg.data = agent_.memory().take_storage(state.token.handle);
  counters_.inc("rndv_rx");
  complete(*state.posted, std::move(msg));
  co_return;
}

// --------------------------------------------------------------------------
// Incoming message pumps
// --------------------------------------------------------------------------

Task<> Endpoint::accept_loop() {
  for (;;) {
    via::Vi* vi = co_await agent_.accept(params_.service);
    const int peer = vi->remote_node();
    auto in = std::make_unique<InVi>();
    in->vi = vi;
    for (int i = 0; i < params_.tokens + params_.control_slack; ++i) {
      vi->post_recv(params_.eager_threshold + 64);
    }
    InVi* raw = in.get();
    in_[peer].push_back(std::move(in));
    pump_tasks_.push_back(pump(raw->vi, peer));
    counters_.inc("channels_accepted");
  }
}

Task<> Endpoint::pump(via::Vi* vi, int peer) {
  for (;;) {
    via::RecvCompletion comp = co_await vi->recv_completion();
    if (comp.status != via::ViError::kNone) {
      // Structured error completion: the VI is dead, stop pumping it.
      counters_.inc("pump_vi_errors");
      co_return;
    }
    const Imm imm = Imm::unpack(comp.immediate);
    apply_credits(imm);

    switch (imm.kind) {
      case WireKind::kEager:
        co_await handle_eager(peer, static_cast<int>(imm.tag),
                              std::move(comp.data));
        break;
      case WireKind::kRts:
        co_await handle_rts(peer, deserialize<RtsBody>(comp.data));
        break;
      case WireKind::kRtr:
        co_await handle_rtr(peer, deserialize<RtrBody>(comp.data));
        break;
      case WireKind::kFin:
        co_await handle_fin(peer, imm.tag);
        break;
      case WireKind::kCredit:
        counters_.inc("credits_rx_msgs");
        break;
    }

    // Find the InVi record to repost + credit. (Small vector: a node talks
    // to a handful of peers on one or two VIs each.)
    for (auto& in : in_.at(peer)) {
      if (in->vi != vi) continue;
      if (imm.kind == WireKind::kCredit) {
        // Credit messages bypass token flow control on the send side, so
        // they must not generate credits themselves: that would inflate the
        // peer's tokens and, at small return thresholds, ping-pong credits
        // forever. Just repost the descriptor they consumed.
        vi->post_recv(params_.eager_threshold + 64);
      } else {
        co_await maybe_return_credits(peer, *in);
      }
      break;
    }
  }
}

}  // namespace meshmp::mp
