#include "via/agent.hpp"

#include <algorithm>
#include <any>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "buf/copy.hpp"

namespace meshmp::via {

using hw::Cpu;
using sim::Task;

namespace {

std::uint32_t ceil_frags(std::int64_t bytes, std::int64_t mtu) {
  if (bytes <= 0) return 1;  // zero-byte messages still take one frame
  return static_cast<std::uint32_t>((bytes + mtu - 1) / mtu);
}

std::uint64_t kcoll_key(topo::Rank root, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(root))
          << 32) |
         seq;
}

buf::Slice pack_double(double v) {
  std::array<std::byte, sizeof(double)> raw;
  // meshmp-lint: host-copy(8-byte scalar codec of the kernel collective)
  std::memcpy(raw.data(), &v, sizeof(double));
  return buf::Pool::instance().stage(raw);
}

double unpack_double(const buf::Slice& bytes) {
  assert(bytes.size() == sizeof(double));
  double v;
  // meshmp-lint: host-copy(8-byte scalar decode of the kernel collective)
  std::memcpy(&v, bytes.data(), sizeof(double));
  return v;
}

}  // namespace

KernelAgent::KernelAgent(hw::NodeHw& node, const topo::Torus& torus,
                         topo::Rank mesh_rank, ViaParams params, sim::Rng rng)
    : node_(node),
      torus_(torus),
      me_(mesh_rank),
      my_coord_(torus.coord(mesh_rank)),
      params_(params),
      memory_(mesh_rank, rng.fork()),
      rng_(rng),
      audit_reg_(chk::Audit::instance().watch("via.agent", [this] {
        if (!kcolls_.empty()) {
          chk::Audit::instance().fail(
              "via.agent", "node " + std::to_string(me_) + ": " +
                               std::to_string(kcolls_.size()) +
                               " kernel collective(s) unreaped at quiesce");
        }
      })),
      metrics_reg_(obs::Registry::instance().attach("via.agent", &counters_)),
      ack_rtt_hist_(obs::Registry::instance().histogram("via.ack_rtt_ns")) {}

KernelAgent::~KernelAgent() = default;

void KernelAgent::attach_nic(topo::Dir dir, hw::Nic& nic) {
  nic_by_dir_[dir.index()] = &nic;
  dir_of_nic_.emplace_back(&nic, dir.index());
  nic.set_driver(this);
}

void KernelAgent::link_change(hw::Nic& nic, bool up) {
  auto it = std::find_if(dir_of_nic_.begin(), dir_of_nic_.end(),
                         [&nic](const auto& e) { return e.first == &nic; });
  if (it == dir_of_nic_.end()) return;
  const topo::DirMask bit = topo::DirMask{1} << static_cast<unsigned>(
                                it->second);
  if (up) {
    failed_dirs_ &= ~bit;
    counters_.inc("link_up_events");
  } else {
    failed_dirs_ |= bit;
    counters_.inc("link_down_events");
  }
  if (link_observer_) {
    link_observer_(topo::Dir::from_index(it->second), up);
  }
}

void KernelAgent::set_quality_masks(topo::DirMask degraded,
                                    topo::DirMask black) {
  if (degraded_dirs_ == degraded && black_dirs_ == black) return;
  degraded_dirs_ = degraded;
  black_dirs_ = black;
  counters_.inc("quality_mask_updates");
}

Vi& KernelAgent::create_vi() {
  vis_.push_back(
      std::make_unique<Vi>(*this, static_cast<std::uint32_t>(vis_.size())));
  return *vis_.back();
}

void KernelAgent::listen(std::uint32_t service) {
  if (!accept_queues_.contains(service)) {
    accept_queues_.emplace(service, std::make_unique<sim::Queue<Vi*>>(
                                        node_.cpu().engine()));
  }
}

Task<Vi*> KernelAgent::connect(net::NodeId remote, std::uint32_t service) {
  Vi& vi = create_vi();
  vi.remote_node_ = remote;
  if (minority_) {
    // Quorum says this side must not open new channels: resolve the dial
    // immediately with a structured refusal instead of probing a cut that
    // will never answer.
    counters_.inc("conn_minority_refused");
    fail_vi(vi, ViError::kMinorityPartition);
    co_return &vi;
  }
  ViaHeader h;
  h.kind = MsgKind::kConnReq;
  h.src_vi = vi.id();
  h.service = service;
  kernel_post(make_frame(remote, h, {}));
  // The handshake is not covered by reliable delivery: a watchdog re-sends
  // the request with backoff and fails the VI once the budget runs out, so a
  // dial to an unreachable node resolves (with vi->failed()) instead of
  // hanging. Callers must check vi->failed() before use.
  connect_watchdog(vi.id(), remote, service).detach();
  co_await vi.conn_done_.wait();
  co_return &vi;
}

Task<> KernelAgent::connect_watchdog(std::uint32_t vi_id, net::NodeId remote,
                                     std::uint32_t service) {
  Vi& vi = *vis_[vi_id];
  auto& eng = node_.cpu().engine();
  double wait = static_cast<double>(params_.connect_timeout);
  for (int attempt = 0; attempt <= params_.connect_retries; ++attempt) {
    const double jitter = 1.0 + params_.retx_jitter * rng_.uniform01();
    co_await sim::delay(eng, static_cast<sim::Duration>(wait * jitter));
    if (vi.connected_ || vi.failed_) co_return;
    if (attempt == params_.connect_retries) break;
    vi.counters_.inc("conn_retries");
    ViaHeader h;
    h.kind = MsgKind::kConnReq;
    h.src_vi = vi.id();
    h.service = service;
    kernel_post(make_frame(remote, h, {}));
    wait = std::min(wait * params_.retx_backoff,
                    static_cast<double>(params_.retx_timeout_max));
  }
  fail_vi(vi, ViError::kUnreachable);
}

Task<Vi*> KernelAgent::accept(std::uint32_t service) {
  listen(service);
  Vi* vi = co_await accept_queues_.at(service)->pop();
  co_return vi;
}

net::Frame KernelAgent::make_frame(net::NodeId dst, const ViaHeader& h,
                                   buf::Slice payload) const {
  net::Frame f;
  f.src = me_;
  f.dst = dst;
  f.wire_bytes =
      static_cast<std::int64_t>(payload.size()) + params_.header_bytes;
  f.payload = std::move(payload);
  // Every frame carries the sender's incarnation; a frame created before a
  // crash and retransmitted after is identifiable by its stale epoch.
  ViaHeader stamped = h;
  stamped.epoch = epoch_;
  f.meta = stamped;
  return f;
}

hw::Nic* KernelAgent::egress_for(net::NodeId dst) {
  assert(dst != me_ && "egress_for: frame addressed to self");
  // Black links (carrier up, dropping everything — a gray failure) are as
  // unusable as failed ones for egress, but they never touched failed_dirs_
  // so no one mistakes them for a carrier loss.
  const topo::DirMask hard = failed_dirs_ | black_dirs_;
  if (!route_table_.empty()) {
    // Degraded mode: a BFS-recomputed table (routes around confirmed-dead
    // nodes) overrides per-frame SDF. A hop whose local link is itself down
    // falls through to the mask-aware SDF/detour path below.
    const std::int8_t d = route_table_[static_cast<std::size_t>(dst)];
    if (d < 0) {
      counters_.inc("unreachable_drops");
      return nullptr;
    }
    const topo::DirMask bit = topo::DirMask{1} << static_cast<unsigned>(d);
    if ((hard & bit) == 0) {
      counters_.inc("table_routed_frames");
      if (degraded_dirs_ != 0 && (degraded_dirs_ & bit) == 0) {
        // The quality-aware table steered this frame onto a healthy hop
        // where plain minimal SDF would have taken a degraded link.
        const auto direct =
            torus_.sdf_next_avoiding(my_coord_, torus_.coord(dst), hard);
        if (direct && (degraded_dirs_ & topo::dir_bit(*direct)) != 0) {
          counters_.inc("degraded_avoided");
        }
      }
      return nic_by_dir_.at(d);
    }
  }
  const topo::Coord to = torus_.coord(dst);
  std::optional<topo::Dir> dir;
  if (degraded_dirs_ != 0) {
    // Prefer a minimal first hop that dodges sick links entirely; when the
    // only minimal hops are degraded ones, fall through and use them (a
    // degraded link still beats a +2-hop detour).
    dir = torus_.sdf_next_avoiding(my_coord_, to, hard | degraded_dirs_);
    if (dir) {
      const auto direct = torus_.sdf_next_avoiding(my_coord_, to, hard);
      if (direct && (degraded_dirs_ & topo::dir_bit(*direct)) != 0) {
        counters_.inc("degraded_avoided");
      }
    }
  }
  if (!dir) dir = torus_.sdf_next_avoiding(my_coord_, to, hard);
  if (!dir) {
    // No minimal direction survives the failures: take a +2-hop detour.
    dir = torus_.detour_next(my_coord_, to, hard);
    if (!dir) {
      counters_.inc("unreachable_drops");
      return nullptr;
    }
  }
  if (hard != 0) {
    const auto preferred = torus_.sdf_next(my_coord_, to);
    if (preferred && !(preferred->dim == dir->dim &&
                       preferred->sign == dir->sign)) {
      counters_.inc("rerouted_frames");
    }
  }
  auto it = nic_by_dir_.find(dir->index());
  if (it == nic_by_dir_.end()) {
    throw std::logic_error("KernelAgent: no adapter on direction " +
                           dir->str());
  }
  return it->second;
}

void KernelAgent::kernel_post(net::Frame f) {
  hw::Nic* nic = egress_for(f.dst);
  if (nic == nullptr) return;  // counted as unreachable_drops in egress_for
  nic->kernel_enqueue(std::move(f));
}

Task<> KernelAgent::post_with_backpressure(hw::Nic& nic, net::Frame f) {
  while (nic.tx_free() == 0) co_await nic.tx_space().next();
  const bool ok = nic.post_tx(std::move(f));
  assert(ok);
  (void)ok;
}

Task<> KernelAgent::transmit_message(Vi& vi, MsgKind kind, buf::Slice data,
                                     std::uint64_t immediate,
                                     const MemToken* token,
                                     std::uint64_t rma_offset) {
  if (!vi.connected()) throw std::logic_error("Vi::send on unconnected VI");
  if (vi.failed()) {
    // Reliable delivery already gave up on this connection; report instead of
    // queueing frames the retransmit machinery will never move.
    throw std::logic_error("Vi::send on failed VI");
  }
  if (static_cast<std::int64_t>(data.size()) > params_.max_message_bytes) {
    throw std::invalid_argument("message exceeds max_message_bytes");
  }
  const auto& hp = node_.cpu().host();
  const auto total = static_cast<std::int64_t>(data.size());
  const std::uint32_t nfrags = ceil_frags(total, params_.mtu_payload);

  co_await vi.send_lock_.acquire();
  const std::uint32_t msg_id = vi.next_msg_id_++;
  // A null egress (all usable ports down) is not an immediate error: reliable
  // frames still enter the unacked window so the ordinary retransmit/backoff
  // machinery either recovers (link came back, detour appeared) or fails the
  // VI after the retry budget — one failure path for every cause.
  hw::Nic* nic = egress_for(vi.remote_node_);
  const bool reliable =
      params_.reliability == Reliability::kReliableDelivery;

  // One kernel trap segments the whole message: charge the per-fragment
  // driver work as a single CPU burst, then stream descriptors to the ring.
  co_await node_.cpu().busy(
      hp.via_tx_per_frame * static_cast<sim::Duration>(nfrags), Cpu::kUser);

  for (std::uint32_t i = 0; i < nfrags; ++i) {
    const std::int64_t off = static_cast<std::int64_t>(i) *
                             params_.mtu_payload;
    const std::int64_t len =
        std::min<std::int64_t>(params_.mtu_payload, total - off);
    // Fragments alias the message slice: no host copy per fragment, and the
    // retransmit window below shares the same storage by refcount.
    buf::Slice chunk;
    if (len > 0) {
      chunk = data.subslice(static_cast<std::size_t>(off),
                            static_cast<std::size_t>(len));
    }

    ViaHeader h;
    h.kind = kind;
    h.src_vi = vi.id();
    h.dst_vi = vi.remote_vi();
    h.msg_id = msg_id;
    h.frag = i;
    h.nfrags = nfrags;
    h.msg_bytes = static_cast<std::uint64_t>(total);
    h.immediate = immediate;
    h.dst_epoch = vi.remote_epoch_;
    if (token != nullptr) {
      h.rma_handle = token->handle;
      h.rma_key = token->key;
      h.rma_offset = rma_offset + static_cast<std::uint64_t>(off);
    }
    if (reliable) h.seq = vi.next_seq_++;

    net::Frame f = make_frame(vi.remote_node_, h, std::move(chunk));

    if (reliable) {
      if (vi.unacked_.empty()) {
        vi.oldest_unacked_ = node_.cpu().engine().now();
      }
      vi.unacked_.push_back(f);  // go-back-N window entry (aliases payload)
      arm_retx_timer(vi);
    }
    if (nic != nullptr) {
      co_await post_with_backpressure(*nic, std::move(f));
    } else {
      vi.counters_.inc("tx_no_route");
    }
  }
  vi.send_lock_.release();
  vi.counters_.inc(kind == MsgKind::kRmaWrite ? "tx_rma" : "tx_messages");
}

// --------------------------------------------------------------------------
// Receive path (ISR context: the caller holds the CPU at interrupt priority).
// --------------------------------------------------------------------------

Task<> KernelAgent::handle_rx(net::Frame frame, hw::IsrContext& ctx) {
  const auto& hp = node_.cpu().host();
  MESHMP_TRACE_TRACK(trk_rx_, me_, "agent.rx");

  if (!powered_) co_return;  // dead host: late-delivered frames vanish

  if (frame.dst != me_) {
    // Kernel-level packet switching: pick the SDF egress adapter and re-post
    // without any user-space copy (paper sec. 5.1: ~12.5 us/hop). The TTL
    // bounds the extra hops rerouting can add, so frames cannot orbit a
    // heavily failed mesh forever.
    if (frame.ttl == 0) {
      counters_.inc("ttl_expired");
      co_return;
    }
    --frame.ttl;
    counters_.inc("fwd_frames");
    MESHMP_TRACE_SCOPE_ARG(ctx.engine(), obs::Cat::kVia, me_, trk_rx_, "fwd",
                           "dst", frame.dst);
    co_await ctx.spend(hp.via_forward_per_frame);
    kernel_post(std::move(frame));
    co_return;
  }

  const ViaHeader* h = std::any_cast<ViaHeader>(&frame.meta);
  if (h == nullptr) {
    counters_.inc("rx_bad_frame");
    co_return;
  }
  if (h->dst_epoch != 0 && h->dst_epoch != epoch_) {
    // Addressed to a previous incarnation of this node (sender has not yet
    // learned about the restart): never deliver across the reboot.
    counters_.inc("rx_stale_epoch");
    co_return;
  }

  switch (h->kind) {
    case MsgKind::kConnReq:
    case MsgKind::kConnAck:
      rx_connect(*h, frame);
      co_await ctx.spend(1_us);  // kernel agent work
      co_return;
    case MsgKind::kAck: {
      if (h->dst_vi >= vis_.size()) {
        counters_.inc("rx_bad_vi");
        co_return;
      }
      Vi& vi = *vis_[h->dst_vi];
      if (vi.failed_ || h->epoch != vi.remote_epoch_) {
        counters_.inc(vi.failed_ ? "rx_failed_vi" : "rx_stale_epoch");
        co_return;
      }
      MESHMP_TRACE_SCOPE(ctx.engine(), obs::Cat::kVia, me_, trk_rx_,
                         "rx_ack");
      rx_ack(vi, *h);
      co_await ctx.spend(300);  // ack bookkeeping
      co_return;
    }
    case MsgKind::kHeartbeat:
    case MsgKind::kMembership:
    case MsgKind::kReconcile:
    case MsgKind::kHeartbeatAck:
    case MsgKind::kLinkState: {
      co_await ctx.spend(hp.via_rx_per_frame);
      counters_.inc(h->kind == MsgKind::kHeartbeat      ? "rx_heartbeats"
                    : h->kind == MsgKind::kReconcile    ? "rx_reconcile"
                    : h->kind == MsgKind::kHeartbeatAck ? "rx_heartbeat_acks"
                    : h->kind == MsgKind::kLinkState    ? "rx_linkstate"
                                                        : "rx_membership");
      if (control_handler_) control_handler_(*h, frame.src, frame.payload);
      co_return;
    }
    case MsgKind::kKernelReduce: {
      // Combine in the ISR: no user copy, no process wakeup (paper sec. 7).
      co_await ctx.spend(hp.via_rx_per_frame + 200);
      const auto root = static_cast<topo::Rank>(h->immediate);
      KernelColl& st = kcoll(root, h->msg_id);
      st.acc += unpack_double(frame.payload);
      --st.waiting_children;
      counters_.inc("kcoll_up_rx");
      kcoll_advance(root, h->msg_id);
      co_return;
    }
    case MsgKind::kKernelBcast: {
      co_await ctx.spend(hp.via_rx_per_frame);
      const auto root = static_cast<topo::Rank>(h->immediate);
      // Waking the single local waiter is the only user-visible work.
      co_await ctx.spend(hp.wakeup);
      kcoll_finish(root, h->msg_id, unpack_double(frame.payload));
      co_return;
    }
    case MsgKind::kData:
    case MsgKind::kRmaWrite: {
      if (h->dst_vi >= vis_.size()) {
        counters_.inc("rx_bad_vi");
        co_return;
      }
      Vi& vi = *vis_[h->dst_vi];
      if (vi.failed_ || (vi.connected_ && h->epoch != vi.remote_epoch_)) {
        // Either this VI already gave up (crash path marked it) or the frame
        // is a leftover from a previous incarnation of the peer.
        counters_.inc(vi.failed_ ? "rx_failed_vi" : "rx_stale_epoch");
        co_return;
      }
      if (h->kind == MsgKind::kData) {
        co_await rx_data(vi, *h, frame, ctx);
      } else {
        co_await rx_rma(vi, *h, frame, ctx);
      }
      co_return;
    }
  }
}

bool KernelAgent::reliable_accept(Vi& vi, const ViaHeader& h) {
  if (params_.reliability != Reliability::kReliableDelivery) return true;
  if (h.seq != vi.expected_seq_) {
    vi.counters_.inc("rx_out_of_order");
    // Dedup audit: a sequence below the cumulative high-water is a frame we
    // already delivered (go-back-N retransmit overlap or a duplicating PHY);
    // above it is a gap the sender must go back over. Either way the frame
    // is discarded, so a duplicate can never be delivered twice — the
    // counters let tests pin that down per failure mode.
    vi.counters_.inc(h.seq < vi.expected_seq_ ? "rx_dup_frames"
                                              : "rx_future_frames");
    // Re-advertise the cumulative ack so the peer's go-back-N converges.
    send_ack(vi);
    return false;
  }
  ++vi.expected_seq_;
  ++vi.frames_since_ack_;
  if (vi.frames_since_ack_ >= params_.ack_every) {
    send_ack(vi);
  } else {
    arm_ack_timer(vi);
  }
  return true;
}

Task<> KernelAgent::rx_data(Vi& vi, const ViaHeader& h, net::Frame& f,
                            hw::IsrContext& ctx) {
  const auto& hp = node_.cpu().host();
  MESHMP_TRACE_SCOPE_ARG(ctx.engine(), obs::Cat::kVia, me_, trk_rx_,
                         "rx_data", "frag", h.frag);
  co_await ctx.spend(hp.via_rx_per_frame);
  if (!reliable_accept(vi, h)) co_return;

  Vi::Reassembly& r = vi.rx_;
  if (!r.active || r.msg_id != h.msg_id) {
    if (r.active) {
      vi.counters_.inc("rx_incomplete_message");
    }
    r = Vi::Reassembly{};
    r.active = true;
    r.msg_id = h.msg_id;
    r.nfrags = h.nfrags;
    r.immediate = h.immediate;
    if (vi.recv_descs_.empty()) {
      r.dropping = true;
      vi.counters_.inc("rx_no_descriptor");
    } else if (static_cast<std::int64_t>(h.msg_bytes) >
               vi.recv_descs_.front()) {
      vi.recv_descs_.pop_front();
      ++vi.descs_consumed_total_;
      MESHMP_TRACE_ASYNC_END(
          ctx.engine(), obs::Cat::kVia, me_, "vi.desc",
          desc_trace_id(me_, vi.id(), vi.descs_consumed_total_));
      r.dropping = true;
      vi.counters_.inc("rx_descriptor_too_small");
    } else {
      vi.recv_descs_.pop_front();
      ++vi.descs_consumed_total_;
      MESHMP_TRACE_ASYNC_END(
          ctx.engine(), obs::Cat::kVia, me_, "vi.desc",
          desc_trace_id(me_, vi.id(), vi.descs_consumed_total_));
      r.buf = buf::Pool::instance().get(h.msg_bytes);
    }
  }

  if (!r.dropping && !f.payload.empty()) {
    // The single receive-side memory copy of the modified M-VIA: kernel ring
    // buffer -> (registered) user buffer. The host memcpy below is the one
    // byte movement this charge models.
    const bool hot =
        static_cast<std::int64_t>(h.msg_bytes) <= hp.cache_bytes;
    co_await buf::charge_copy(ctx, static_cast<std::int64_t>(f.payload.size()),
                              hot);
    const auto off = static_cast<std::size_t>(h.frag) *
                     static_cast<std::size_t>(params_.mtu_payload);
    std::memcpy(r.buf.data() + off, f.payload.data(), f.payload.size());
  }
  ++r.frags_seen;

  if (r.frags_seen == r.nfrags) {
    if (!r.dropping) {
      co_await ctx.spend(hp.wakeup);
      // Completion steals the pooled storage: no copy at the user boundary.
      vi.completions_.push(
          RecvCompletion{std::move(r.buf).release(), r.immediate});
      vi.counters_.inc("rx_messages");
    }
    r = Vi::Reassembly{};
  }
}

Task<> KernelAgent::rx_rma(Vi& vi, const ViaHeader& h, net::Frame& f,
                           hw::IsrContext& ctx) {
  const auto& hp = node_.cpu().host();
  MESHMP_TRACE_SCOPE_ARG(ctx.engine(), obs::Cat::kVia, me_, trk_rx_, "rx_rma",
                         "frag", h.frag);
  co_await ctx.spend(hp.via_rx_per_frame);
  if (!reliable_accept(vi, h)) co_return;
  const bool hot = static_cast<std::int64_t>(h.msg_bytes) <= hp.cache_bytes;
  co_await buf::charge_copy(ctx, static_cast<std::int64_t>(f.payload.size()),
                            hot);
  if (!memory_.write(h.rma_handle, h.rma_key, h.rma_offset,
                     f.payload.span())) {
    vi.counters_.inc("rma_rejected");
  } else {
    vi.counters_.inc("rx_rma_frames");
  }
}

void KernelAgent::rx_ack(Vi& vi, const ViaHeader& h) {
  if (h.ack_seq > vi.next_seq_) [[unlikely]] {
    chk::Audit::instance().fail(
        "via.vi", "node " + std::to_string(me_) + " vi " +
                      std::to_string(vi.id()) + ": cumulative ack " +
                      std::to_string(h.ack_seq) + " beyond send seq " +
                      std::to_string(vi.next_seq_));
  }
  bool progress = false;
  while (!vi.unacked_.empty()) {
    const auto* fh = std::any_cast<ViaHeader>(&vi.unacked_.front().meta);
    assert(fh != nullptr);
    if (fh->seq < h.ack_seq) {
      vi.unacked_.pop_front();
      progress = true;
    } else {
      break;
    }
  }
  if (progress) {
    // Ack RTT as seen by go-back-N: oldest-unacked send (or last progress)
    // to the cumulative ack that moved the window.
    ack_rtt_hist_.add(node_.cpu().engine().now() - vi.oldest_unacked_);
    vi.retries_ = 0;
    vi.oldest_unacked_ = node_.cpu().engine().now();
  }
}

void KernelAgent::rx_connect(const ViaHeader& h, const net::Frame& f) {
  if (h.kind == MsgKind::kConnReq) {
    auto it = accept_queues_.find(h.service);
    if (it == accept_queues_.end()) {
      counters_.inc("conn_refused");
      return;
    }
    // The dialer re-sends kConnReq when the handshake times out; a duplicate
    // must re-ack the VI already accepted for it, not accept a second one.
    // A request from a *newer incarnation* of the dialer is not a duplicate:
    // the old mapping belongs to the dead incarnation and a fresh VI is
    // accepted in its place.
    const std::uint64_t dial_key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.src)) << 32) |
        h.src_vi;
    auto [acc, fresh] =
        accepted_vis_.try_emplace(dial_key, AcceptedDial{0, h.epoch});
    if (!fresh && acc->second.epoch != h.epoch) {
      acc->second = AcceptedDial{0, h.epoch};
      fresh = true;
      counters_.inc("conn_reincarnated");
    }
    if (fresh) {
      Vi& vi = create_vi();
      acc->second.vi = vi.id();
      vi.remote_node_ = f.src;
      vi.remote_vi_ = h.src_vi;
      vi.remote_epoch_ = h.epoch;
      vi.connected_ = true;
      it->second->push(&vi);
    } else {
      counters_.inc("conn_dup_req");
    }
    ViaHeader ack;
    ack.kind = MsgKind::kConnAck;
    ack.src_vi = acc->second.vi;
    ack.dst_vi = h.src_vi;
    // Pin the ack to the incarnation that dialed: if the dialer crashed and
    // rebooted meanwhile, this ack must not complete the new dial.
    ack.dst_epoch = h.epoch;
    kernel_post(make_frame(f.src, ack, {}));
    return;
  }
  // kConnAck at the initiator.
  if (h.dst_vi >= vis_.size()) {
    counters_.inc("rx_bad_vi");
    return;
  }
  Vi& vi = *vis_[h.dst_vi];
  if (vi.connected_ || vi.failed_) {
    // Duplicate ack from a re-sent request, or the dial already gave up.
    counters_.inc("conn_dup_ack");
    return;
  }
  vi.remote_vi_ = h.src_vi;
  vi.remote_epoch_ = h.epoch;
  vi.connected_ = true;
  vi.conn_done_.fire();
}

void KernelAgent::send_ack(Vi& vi) {
  vi.frames_since_ack_ = 0;
  ViaHeader h;
  h.kind = MsgKind::kAck;
  h.src_vi = vi.id();
  h.dst_vi = vi.remote_vi();
  h.ack_seq = vi.expected_seq_;
  h.dst_epoch = vi.remote_epoch_;
  kernel_post(make_frame(vi.remote_node_, h, {}));
}

void KernelAgent::arm_ack_timer(Vi& vi) {
  if (vi.ack_timer_running_) return;
  vi.ack_timer_running_ = true;
  ack_timer_loop(vi.id()).detach();
}

void KernelAgent::arm_retx_timer(Vi& vi) {
  if (vi.retx_running_) return;
  vi.retx_running_ = true;
  retx_timer_loop(vi.id()).detach();
}

void KernelAgent::fail_vi(Vi& vi, ViError err) {
  if (vi.failed_) return;
  vi.failed_ = true;
  vi.error_ = err;
  vi.counters_.inc("failed");
  counters_.inc("vi_failures");
  MESHMP_TRACE_INSTANT_ARG(node_.cpu().engine(), obs::Cat::kVia, me_,
                           "vi_failed", "vi", vi.id());
  // Structured error completion: a receiver blocked in recv_completion()
  // wakes with status != kNone instead of hanging forever.
  RecvCompletion c;
  c.status = err;
  vi.completions_.push(std::move(c));
  if (vi.on_error_) vi.on_error_(vi, err);
  // A dial still waiting on the handshake resolves now (with failed() set).
  vi.conn_done_.fire();
}

// --------------------------------------------------------------------------
// Node-failure lifecycle
// --------------------------------------------------------------------------

void KernelAgent::power_fail() {
  if (!powered_) return;
  powered_ = false;
  counters_.inc("node_crashes");
  MESHMP_TRACE_INSTANT(node_.cpu().engine(), obs::Cat::kVia, me_,
                       "node_crash");
  // Every connection dies with the host. fail_vi wakes local blockers with a
  // structured error completion so the node's own coroutines unwind instead
  // of hanging, and upper layers (mp::Endpoint) quiesce their channel state
  // through the error handler.
  for (auto& vi : vis_) {
    vi->unacked_.clear();  // retransmit window is gone with the host's RAM
    vi->frames_since_ack_ = 0;
    vi->rx_ = Vi::Reassembly{};  // half-reassembled messages die with RAM too
    fail_vi(*vi, ViError::kUnreachable);
  }
  // In-progress kernel collectives are lost; interior forwarding state has
  // no local waiter, so dropping it is safe.
  kcolls_.clear();
  // Accepted-but-unreaped connections must not be handed to the next
  // incarnation's accept() calls.
  for (auto& [service, q] : accept_queues_) {
    while (q->try_pop()) {
    }
  }
  clear_route_table();
  // Quality verdicts lived in the dead host's RAM; the next incarnation
  // re-learns them from fresh probes.
  degraded_dirs_ = 0;
  black_dirs_ = 0;
}

void KernelAgent::power_restore() {
  if (powered_) return;
  powered_ = true;
  ++epoch_;  // the new incarnation: stale frames no longer match
  // A fresh host has no connection memory; re-dials from peers (which also
  // carry their own epochs) get fresh accepts.
  accepted_vis_.clear();
  counters_.inc("node_restarts");
  MESHMP_TRACE_INSTANT(node_.cpu().engine(), obs::Cat::kVia, me_,
                       "node_restart");
}

void KernelAgent::peer_declared_dead(net::NodeId peer) {
  for (auto& vi : vis_) {
    if (vi->remote_node_ == peer && !vi->failed_) {
      // The failure detector confirmed the peer dead: error-complete now
      // rather than waiting out the full retransmit budget.
      vi->unacked_.clear();
      fail_vi(*vi, ViError::kUnreachable);
    }
  }
}

void KernelAgent::set_minority(bool m) {
  if (minority_ == m) return;
  minority_ = m;
  counters_.inc(m ? "minority_entered" : "minority_cleared");
  MESHMP_TRACE_INSTANT(node_.cpu().engine(), obs::Cat::kVia, me_,
                       m ? "minority_enter" : "minority_clear");
}

void KernelAgent::partition_flush() {
  ++epoch_;  // the post-heal incarnation: pre-heal frames no longer match
  counters_.inc("partition_flushes");
  MESHMP_TRACE_INSTANT(node_.cpu().engine(), obs::Cat::kVia, me_,
                       "partition_flush");
  // Every channel established on the partitioned view dies here — the same
  // teardown as power_fail(), minus the power cycle. Local blockers wake
  // with structured errors and re-establish against the merged view.
  for (auto& vi : vis_) {
    vi->unacked_.clear();
    vi->frames_since_ack_ = 0;
    vi->rx_ = Vi::Reassembly{};
    fail_vi(*vi, ViError::kUnreachable);
  }
  kcolls_.clear();
  for (auto& [service, q] : accept_queues_) {
    while (q->try_pop()) {
    }
  }
  // Peers re-dialing under their own bumped epochs must get fresh accepts.
  accepted_vis_.clear();
  clear_route_table();
}

void KernelAgent::peer_reincarnated(net::NodeId peer, std::uint32_t epoch) {
  for (auto& vi : vis_) {
    if (vi->remote_node_ == peer && vi->connected_ && !vi->failed_ &&
        vi->remote_epoch_ < epoch) {
      // The peer moved to a new incarnation: this VI's sequence space and
      // retransmit window mean nothing to it any more.
      vi->unacked_.clear();
      fail_vi(*vi, ViError::kUnreachable);
    }
  }
}

void KernelAgent::set_route_table(std::vector<std::int8_t> table) {
  assert(table.size() == static_cast<std::size_t>(torus_.size()));
  route_table_ = std::move(table);
  counters_.inc("route_table_installs");
}

void KernelAgent::clear_route_table() { route_table_.clear(); }

namespace {

const char* control_tx_counter(MsgKind kind) {
  switch (kind) {
    case MsgKind::kHeartbeat:
      return "tx_heartbeats";
    case MsgKind::kReconcile:
      return "tx_reconcile";
    case MsgKind::kHeartbeatAck:
      return "tx_heartbeat_acks";
    case MsgKind::kLinkState:
      return "tx_linkstate";
    default:
      return "tx_membership";
  }
}

}  // namespace

void KernelAgent::send_control(net::NodeId dst, MsgKind kind,
                               buf::Slice payload, std::uint64_t immediate,
                               std::uint32_t msg_id) {
  if (!powered_) return;
  ViaHeader h;
  h.kind = kind;
  h.immediate = immediate;
  h.msg_id = msg_id;
  counters_.inc(control_tx_counter(kind));
  kernel_post(make_frame(dst, h, std::move(payload)));
}

void KernelAgent::send_control_dir(topo::Dir dir, MsgKind kind,
                                   buf::Slice payload, std::uint64_t immediate,
                                   std::uint32_t msg_id) {
  if (!powered_) return;
  const auto n = torus_.neighbor(me_, dir);
  auto it = nic_by_dir_.find(dir.index());
  if (!n || it == nic_by_dir_.end()) return;
  ViaHeader h;
  h.kind = kind;
  h.immediate = immediate;
  h.msg_id = msg_id;
  counters_.inc(control_tx_counter(kind));
  // Pinned to the port serving `dir`: quality probes must keep exercising
  // the sick cable itself, not whatever healthy route egress_for would pick.
  it->second->kernel_enqueue(make_frame(*n, h, std::move(payload)));
}

sim::Duration KernelAgent::backoff_delay(const Vi& vi) {
  double t = static_cast<double>(params_.retx_timeout);
  for (int i = 0; i < vi.retries_; ++i) {
    t = std::min(t * params_.retx_backoff,
                 static_cast<double>(params_.retx_timeout_max));
  }
  // Deterministic (seeded) jitter de-synchronizes senders sharing a failed
  // link without breaking run-twice reproducibility.
  t *= 1.0 + params_.retx_jitter * rng_.uniform01();
  return static_cast<sim::Duration>(t);
}

// --------------------------------------------------------------------------
// Interrupt-level global reduction (paper sec. 7 future work)
// --------------------------------------------------------------------------

KernelAgent::KernelColl& KernelAgent::kcoll(topo::Rank root,
                                            std::uint32_t seq) {
  auto [it, fresh] = kcolls_.try_emplace(kcoll_key(root, seq));
  if (fresh) {
    it->second.waiting_children = static_cast<int>(
        topo::bcast_children(torus_, root, me_).size());
    it->second.done =
        std::make_unique<sim::Trigger>(node_.cpu().engine());
  }
  return it->second;
}

void KernelAgent::kcoll_advance(topo::Rank root, std::uint32_t seq) {
  KernelColl& st = kcoll(root, seq);
  if (!st.user_in || st.waiting_children > 0 || st.up_sent) return;
  st.up_sent = true;
  if (me_ == root) {
    kcoll_finish(root, seq, st.acc);
    return;
  }
  const auto parent = topo::bcast_parent(torus_, root, me_);
  assert(parent);
  ViaHeader h;
  h.kind = MsgKind::kKernelReduce;
  h.msg_id = seq;
  h.immediate = static_cast<std::uint64_t>(root);
  kernel_post(make_frame(*parent, h, pack_double(st.acc)));
  counters_.inc("kcoll_up_tx");
}

void KernelAgent::kcoll_finish(topo::Rank root, std::uint32_t seq,
                               double result) {
  KernelColl& st = kcoll(root, seq);
  st.result = result;
  st.down = true;
  // Fan the result out to the children entirely at kernel level.
  ViaHeader h;
  h.kind = MsgKind::kKernelBcast;
  h.msg_id = seq;
  h.immediate = static_cast<std::uint64_t>(root);
  for (topo::Rank kid : topo::bcast_children(torus_, root, me_)) {
    kernel_post(make_frame(kid, h, pack_double(result)));
  }
  st.done->fire();
}

Task<double> KernelAgent::kernel_global_sum(double value, topo::Rank root,
                                            std::uint32_t sequence) {
  const auto& hp = node_.cpu().host();
  // One kernel trap to deposit the local contribution.
  co_await node_.cpu().busy(hp.via_post, Cpu::kUser);
  KernelColl& st = kcoll(root, sequence);
  st.acc += value;
  st.user_in = true;
  kcoll_advance(root, sequence);
  co_await st.done->wait();
  // After completion the state still exists (st.done fired); reap it.
  const double result = kcoll(root, sequence).result;
  kcolls_.erase(kcoll_key(root, sequence));
  co_await node_.cpu().busy(hp.via_completion, Cpu::kUser);
  co_return result;
}

Task<> KernelAgent::ack_timer_loop(std::uint32_t vi_id) {
  Vi& vi = *vis_[vi_id];
  auto& eng = node_.cpu().engine();
  while (vi.frames_since_ack_ > 0) {
    co_await sim::delay(eng, params_.ack_delay);
    if (vi.frames_since_ack_ > 0) send_ack(vi);
  }
  vi.ack_timer_running_ = false;
}

Task<> KernelAgent::retx_timer_loop(std::uint32_t vi_id) {
  Vi& vi = *vis_[vi_id];
  auto& eng = node_.cpu().engine();
  const auto& hp = node_.cpu().host();
  while (!vi.unacked_.empty() && !vi.failed_) {
    // Exponential backoff: consecutive fruitless retransmissions wait longer
    // and longer, so a flapping link is probed cheaply while the retry budget
    // still bounds total time-to-error. Ack progress resets retries_ (and so
    // the backoff) in rx_ack.
    co_await sim::delay(eng, backoff_delay(vi));
    if (vi.unacked_.empty() || vi.failed_) break;
    if (eng.now() - vi.oldest_unacked_ < params_.retx_timeout) continue;
    if (++vi.retries_ > params_.max_retries) {
      fail_vi(vi, ViError::kUnreachable);
      break;
    }
    // Go-back-N: retransmit the whole unacked window from kernel context.
    vi.counters_.inc("retransmits");
    if (retransmit_observer_) retransmit_observer_(vi.remote_node_);
    MESHMP_TRACE_INSTANT_ARG(eng, obs::Cat::kVia, me_, "retransmit", "window",
                             vi.unacked_.size());
    co_await node_.cpu().busy(
        hp.via_tx_per_frame * static_cast<sim::Duration>(vi.unacked_.size()),
        Cpu::kKernel);
    for (const net::Frame& f : vi.unacked_) {
      kernel_post(f);  // frame copy; payload shared by refcount
    }
    vi.oldest_unacked_ = eng.now();
  }
  vi.retx_running_ = false;
}

}  // namespace meshmp::via
