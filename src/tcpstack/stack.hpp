#pragma once

// Per-node TCP/IP stack over the mesh: kernel IP forwarding gives multi-hop
// connectivity (the "careful setup of routing tables" the paper mentions for
// MPICH-P4 on a mesh); go-back-N with cumulative/delayed acks gives the
// reliable byte stream.

#include <cstdint>
#include <memory>
#include <vector>

#include "buf/pool.hpp"
#include "chk/flat_map.hpp"
#include "hw/nic.hpp"
#include "hw/node.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "tcpstack/params.hpp"
#include "tcpstack/socket.hpp"
#include "topo/torus.hpp"

namespace meshmp::tcpstack {

enum class SegKind : std::uint8_t { kSyn, kSynAck, kData, kAck };

struct TcpHeader {
  SegKind kind = SegKind::kData;
  std::uint32_t src_conn = 0;
  std::uint32_t dst_conn = 0;
  std::uint64_t seq = 0;  ///< stream offset of the first payload byte
  std::uint64_t ack = 0;  ///< cumulative ack (next expected byte)
  std::uint16_t port = 0; ///< rendezvous port (kSyn)

  // Carried per-frame inside Frame::meta — use the pooled meta freelist.
  MESHMP_POOLED_META()
};

static_assert(sizeof(TcpHeader) <= net::kMetaBlockBytes);

class TcpStack final : public hw::NicDriver {
 public:
  TcpStack(hw::NodeHw& node, const topo::Torus& torus, topo::Rank mesh_rank,
           TcpParams params);
  ~TcpStack() override;

  void attach_nic(topo::Dir dir, hw::Nic& nic);

  [[nodiscard]] net::NodeId node_id() const noexcept { return me_; }
  [[nodiscard]] hw::NodeHw& node() noexcept { return node_; }
  [[nodiscard]] const TcpParams& params() const noexcept { return params_; }

  void listen(std::uint16_t port);
  sim::Task<TcpSocket*> connect(net::NodeId remote, std::uint16_t port);
  sim::Task<TcpSocket*> accept(std::uint16_t port);

  sim::Task<> handle_rx(net::Frame frame, hw::IsrContext& ctx) override;

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  friend class TcpSocket;

  sim::Task<> stream_out(TcpSocket& s, std::vector<std::byte> data);
  hw::Nic& egress_for(net::NodeId dst);
  void kernel_post(net::Frame f);
  sim::Task<> post_with_backpressure(hw::Nic& nic, net::Frame f);
  net::Frame make_frame(net::NodeId dst, const TcpHeader& h,
                        buf::Slice payload) const;
  void send_ack(TcpSocket& s);
  void arm_ack_timer(TcpSocket& s);
  void arm_retx_timer(TcpSocket& s);
  sim::Task<> ack_timer_loop(std::uint32_t conn);
  sim::Task<> retx_timer_loop(std::uint32_t conn);

  sim::Task<> rx_data(TcpSocket& s, const TcpHeader& h, net::Frame& f,
                      hw::IsrContext& ctx);
  void rx_ack(TcpSocket& s, const TcpHeader& h);
  void rx_connect(const TcpHeader& h, const net::Frame& f);

  hw::NodeHw& node_;
  const topo::Torus& torus_;
  net::NodeId me_;
  topo::Coord my_coord_;
  TcpParams params_;

  chk::FlatMap<int, hw::Nic*> nic_by_dir_;
  std::vector<std::unique_ptr<TcpSocket>> socks_;
  chk::FlatMap<std::uint16_t, std::unique_ptr<sim::Queue<TcpSocket*>>>
      accept_queues_;

  obs::Counters counters_;
  obs::Registry::Registration metrics_reg_;
  obs::Histogram& rx_seg_bytes_hist_;  ///< in-order data segment payloads
  std::int32_t trk_rx_ = -1;           ///< trace track for the rx/ISR side
};

}  // namespace meshmp::tcpstack
