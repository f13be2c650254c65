#include "tcpstack/stack.hpp"

#include <algorithm>
#include <any>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "buf/copy.hpp"

namespace meshmp::tcpstack {

using hw::Cpu;
using sim::Task;

TcpStack::TcpStack(hw::NodeHw& node, const topo::Torus& torus,
                   topo::Rank mesh_rank, TcpParams params)
    : node_(node),
      torus_(torus),
      me_(mesh_rank),
      my_coord_(torus.coord(mesh_rank)),
      params_(params),
      metrics_reg_(obs::Registry::instance().attach("tcp.stack", &counters_)),
      rx_seg_bytes_hist_(
          obs::Registry::instance().histogram("tcp.rx_seg_bytes")) {}

TcpStack::~TcpStack() = default;

void TcpStack::attach_nic(topo::Dir dir, hw::Nic& nic) {
  nic_by_dir_[dir.index()] = &nic;
  nic.set_driver(this);
}

void TcpStack::listen(std::uint16_t port) {
  if (!accept_queues_.contains(port)) {
    accept_queues_.emplace(port, std::make_unique<sim::Queue<TcpSocket*>>(
                                     node_.cpu().engine()));
  }
}

Task<TcpSocket*> TcpStack::connect(net::NodeId remote, std::uint16_t port) {
  socks_.push_back(std::make_unique<TcpSocket>(
      *this, static_cast<std::uint32_t>(socks_.size())));
  TcpSocket& s = *socks_.back();
  s.remote_node_ = remote;
  TcpHeader h;
  h.kind = SegKind::kSyn;
  h.src_conn = s.id();
  h.port = port;
  kernel_post(make_frame(remote, h, {}));
  co_await s.conn_done_.wait();
  co_return &s;
}

Task<TcpSocket*> TcpStack::accept(std::uint16_t port) {
  listen(port);
  TcpSocket* s = co_await accept_queues_.at(port)->pop();
  co_return s;
}

net::Frame TcpStack::make_frame(net::NodeId dst, const TcpHeader& h,
                                buf::Slice payload) const {
  net::Frame f;
  f.src = me_;
  f.dst = dst;
  f.wire_bytes =
      static_cast<std::int64_t>(payload.size()) + params_.header_bytes;
  f.payload = std::move(payload);
  f.meta = h;
  return f;
}

hw::Nic& TcpStack::egress_for(net::NodeId dst) {
  assert(dst != me_);
  const auto dir = torus_.sdf_next(my_coord_, torus_.coord(dst));
  assert(dir);
  auto it = nic_by_dir_.find(dir->index());
  if (it == nic_by_dir_.end()) {
    throw std::logic_error("TcpStack: no adapter on direction " + dir->str());
  }
  return *it->second;
}

void TcpStack::kernel_post(net::Frame f) {
  egress_for(f.dst).kernel_enqueue(std::move(f));
}

Task<> TcpStack::post_with_backpressure(hw::Nic& nic, net::Frame f) {
  while (nic.tx_free() == 0) co_await nic.tx_space().next();
  const bool ok = nic.post_tx(std::move(f));
  assert(ok);
  (void)ok;
}

Task<> TcpStack::stream_out(TcpSocket& s, std::vector<std::byte> data) {
  if (!s.connected_) throw std::logic_error("send on unconnected socket");
  const auto& hp = node_.cpu().host();
  const auto total = static_cast<std::int64_t>(data.size());
  const bool hot = total <= hp.cache_bytes;
  // Adopt the stream once; every MSS segment below aliases this storage, so
  // the *modeled* user->skb copy per segment has no host-side counterpart.
  const buf::Slice whole = buf::Pool::instance().adopt(std::move(data));

  MESHMP_TRACE_TRACK(s.trk_, me_, "sock" + std::to_string(s.id()));
  MESHMP_TRACE_SCOPE_ARG(node_.cpu().engine(), obs::Cat::kTcp, me_, s.trk_,
                         "tcp.stream_out", "bytes", total);
  co_await s.send_lock_.acquire();
  hw::Nic& nic = egress_for(s.remote_node_);
  std::int64_t off = 0;
  while (off < total) {
    const std::int64_t len = std::min(params_.mss, total - off);
    // Respect the send window (blocks until acks open it).
    while (s.next_tx_seq_ + static_cast<std::uint64_t>(len) >
           s.acked_seq_ + static_cast<std::uint64_t>(params_.window_bytes)) {
      co_await s.window_open_.next();
      if (s.failed_) {
        s.send_lock_.release();
        co_return;
      }
    }
    // Copy #1 of the TCP path: user buffer -> kernel skb.
    co_await buf::charge_copy(node_.cpu(), len, hot);
    // Per-segment protocol transmit work.
    co_await node_.cpu().busy(hp.tcp_tx_per_frame, Cpu::kUser);

    TcpHeader h;
    h.kind = SegKind::kData;
    h.src_conn = s.id();
    h.dst_conn = s.remote_conn_;
    h.seq = s.next_tx_seq_;
    buf::Slice chunk = whole.subslice(static_cast<std::size_t>(off),
                                      static_cast<std::size_t>(len));
    net::Frame f = make_frame(s.remote_node_, h, std::move(chunk));
    s.next_tx_seq_ += static_cast<std::uint64_t>(len);
    if (s.unacked_.empty()) {
      s.oldest_unacked_ = node_.cpu().engine().now();
    }
    s.unacked_.push_back(f);
    arm_retx_timer(s);
    co_await post_with_backpressure(nic, std::move(f));
    off += len;
  }
  s.send_lock_.release();
  s.counters_.inc("tx_bytes", total);
}

// -- receive path (ISR context) --------------------------------------------

Task<> TcpStack::handle_rx(net::Frame frame, hw::IsrContext& ctx) {
  const auto& hp = node_.cpu().host();
  if (frame.dst != me_) {
    counters_.inc("fwd_frames");
    MESHMP_TRACE_INSTANT_ARG(node_.cpu().engine(), obs::Cat::kTcp, me_,
                             "tcp.fwd", "dst", frame.dst);
    co_await ctx.spend(hp.tcp_forward_per_frame);
    kernel_post(std::move(frame));
    co_return;
  }
  const TcpHeader* h = std::any_cast<TcpHeader>(&frame.meta);
  if (h == nullptr) {
    counters_.inc("rx_bad_frame");
    co_return;
  }
  switch (h->kind) {
    case SegKind::kSyn:
    case SegKind::kSynAck:
      rx_connect(*h, frame);
      co_await ctx.spend(2_us);
      co_return;
    case SegKind::kAck: {
      if (h->dst_conn >= socks_.size()) {
        counters_.inc("rx_bad_conn");
        co_return;
      }
      co_await ctx.spend(hp.tcp_ack_rx);
      rx_ack(*socks_[h->dst_conn], *h);
      co_return;
    }
    case SegKind::kData: {
      if (h->dst_conn >= socks_.size()) {
        counters_.inc("rx_bad_conn");
        co_return;
      }
      co_await rx_data(*socks_[h->dst_conn], *h, frame, ctx);
      co_return;
    }
  }
}

Task<> TcpStack::rx_data(TcpSocket& s, const TcpHeader& h, net::Frame& f,
                         hw::IsrContext& ctx) {
  const auto& hp = node_.cpu().host();
  MESHMP_TRACE_TRACK(trk_rx_, me_, "tcp.rx");
  MESHMP_TRACE_SCOPE_ARG(node_.cpu().engine(), obs::Cat::kTcp, me_, trk_rx_,
                         "tcp.rx_data", "bytes", f.payload.size());
  co_await ctx.spend(hp.tcp_rx_per_frame);
  // Software checksum over the payload (no receive offload in this era).
  co_await ctx.spend(sim::transfer_time(
      static_cast<std::int64_t>(f.payload.size()), hp.tcp_csum_bytes_per_sec));

  if (h.seq != s.expected_rx_seq_) {
    s.counters_.inc("rx_out_of_order");
    MESHMP_TRACE_INSTANT_ARG(node_.cpu().engine(), obs::Cat::kTcp, me_,
                             "tcp.rx_out_of_order", "seq", h.seq);
    send_ack(s);  // dup-ack so the peer's go-back-N converges
    co_return;
  }
  s.expected_rx_seq_ += static_cast<std::uint64_t>(f.payload.size());
  rx_seg_bytes_hist_.add(static_cast<std::int64_t>(f.payload.size()));
  const bool was_empty = s.sockbuf_head_ == s.sockbuf_.size();
  s.sockbuf_.insert(s.sockbuf_.end(), f.payload.begin(), f.payload.end());
  if (was_empty) {
    co_await ctx.spend(hp.wakeup);
    s.rx_ready_.notify_all();
  }
  if (++s.segs_since_ack_ >= params_.ack_every) {
    co_await ctx.spend(hp.tcp_ack_tx);
    send_ack(s);
  } else {
    arm_ack_timer(s);
  }
}

void TcpStack::rx_ack(TcpSocket& s, const TcpHeader& h) {
  bool progress = false;
  while (!s.unacked_.empty()) {
    const auto* fh = std::any_cast<TcpHeader>(&s.unacked_.front().meta);
    assert(fh != nullptr);
    if (fh->seq + s.unacked_.front().payload.size() <= h.ack) {
      s.unacked_.pop_front();
      progress = true;
    } else {
      break;
    }
  }
  if (h.ack > s.acked_seq_) {
    s.acked_seq_ = h.ack;
    progress = true;
  }
  if (progress) {
    s.retries_ = 0;
    s.oldest_unacked_ = node_.cpu().engine().now();
    s.window_open_.notify_all();
  }
}

void TcpStack::rx_connect(const TcpHeader& h, const net::Frame& f) {
  if (h.kind == SegKind::kSyn) {
    auto it = accept_queues_.find(h.port);
    if (it == accept_queues_.end()) {
      counters_.inc("conn_refused");
      return;
    }
    socks_.push_back(std::make_unique<TcpSocket>(
        *this, static_cast<std::uint32_t>(socks_.size())));
    TcpSocket& s = *socks_.back();
    s.remote_node_ = f.src;
    s.remote_conn_ = h.src_conn;
    s.connected_ = true;
    it->second->push(&s);
    TcpHeader ack;
    ack.kind = SegKind::kSynAck;
    ack.src_conn = s.id();
    ack.dst_conn = h.src_conn;
    kernel_post(make_frame(f.src, ack, {}));
    return;
  }
  if (h.dst_conn >= socks_.size()) {
    counters_.inc("rx_bad_conn");
    return;
  }
  TcpSocket& s = *socks_[h.dst_conn];
  s.remote_conn_ = h.src_conn;
  s.connected_ = true;
  s.conn_done_.fire();
}

void TcpStack::send_ack(TcpSocket& s) {
  s.segs_since_ack_ = 0;
  TcpHeader h;
  h.kind = SegKind::kAck;
  h.src_conn = s.id();
  h.dst_conn = s.remote_conn_;
  h.ack = s.expected_rx_seq_;
  kernel_post(make_frame(s.remote_node_, h, {}));
}

void TcpStack::arm_ack_timer(TcpSocket& s) {
  if (s.ack_timer_running_) return;
  s.ack_timer_running_ = true;
  ack_timer_loop(s.id()).detach();
}

void TcpStack::arm_retx_timer(TcpSocket& s) {
  if (s.retx_running_) return;
  s.retx_running_ = true;
  retx_timer_loop(s.id()).detach();
}

Task<> TcpStack::ack_timer_loop(std::uint32_t conn) {
  TcpSocket& s = *socks_[conn];
  auto& eng = node_.cpu().engine();
  while (s.segs_since_ack_ > 0) {
    co_await sim::delay(eng, params_.ack_delay);
    if (s.segs_since_ack_ > 0) send_ack(s);
  }
  s.ack_timer_running_ = false;
}

Task<> TcpStack::retx_timer_loop(std::uint32_t conn) {
  TcpSocket& s = *socks_[conn];
  auto& eng = node_.cpu().engine();
  const auto& hp = node_.cpu().host();
  while (!s.unacked_.empty() && !s.failed_) {
    co_await sim::delay(eng, params_.retx_timeout);
    if (s.unacked_.empty()) break;
    if (eng.now() - s.oldest_unacked_ < params_.retx_timeout) continue;
    if (++s.retries_ > params_.max_retries) {
      s.failed_ = true;
      s.counters_.inc("failed");
      s.window_open_.notify_all();
      break;
    }
    s.counters_.inc("retransmits");
    MESHMP_TRACE_INSTANT_ARG(eng, obs::Cat::kTcp, me_, "tcp.retransmit",
                             "segs", s.unacked_.size());
    co_await node_.cpu().busy(
        hp.tcp_tx_per_frame * static_cast<sim::Duration>(s.unacked_.size()),
        Cpu::kKernel);
    for (const net::Frame& f : s.unacked_) kernel_post(f);
    s.oldest_unacked_ = eng.now();
  }
  s.retx_running_ = false;
}

}  // namespace meshmp::tcpstack
