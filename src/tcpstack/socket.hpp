#pragma once

// A connected TCP socket (stream semantics).
//
// The baseline against which the paper measures M-VIA: every send crosses the
// kernel boundary (syscall), is copied user->kernel, and is processed
// per-segment by the protocol machine; every receive pays the interrupt +
// protocol + software checksum path, then a second copy kernel->user at the
// recv() syscall.

#include <cstdint>
#include <deque>
#include <vector>

#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace meshmp::tcpstack {

class TcpStack;

class TcpSocket {
 public:
  TcpSocket(TcpStack& stack, std::uint32_t id);
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }
  [[nodiscard]] net::NodeId remote_node() const noexcept {
    return remote_node_;
  }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Writes the whole buffer to the stream (blocking while the send window
  /// is full).
  sim::Task<> send(std::vector<std::byte> data);

  /// Reads 1..max_bytes from the stream (blocking until data is available).
  sim::Task<std::vector<std::byte>> recv(std::int64_t max_bytes);

  /// Reads exactly n bytes.
  sim::Task<std::vector<std::byte>> recv_exact(std::int64_t n);

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  friend class TcpStack;

  TcpStack& stack_;
  std::uint32_t id_;

  bool connected_ = false;
  bool failed_ = false;
  net::NodeId remote_node_ = -1;
  std::uint32_t remote_conn_ = 0;
  sim::Trigger conn_done_;

  // transmit
  std::uint64_t next_tx_seq_ = 0;
  std::uint64_t acked_seq_ = 0;
  std::deque<net::Frame> unacked_;
  sim::Time oldest_unacked_ = 0;
  int retries_ = 0;
  bool retx_running_ = false;
  sim::Signal window_open_;
  sim::Resource send_lock_;

  // receive
  std::uint64_t expected_rx_seq_ = 0;
  int segs_since_ack_ = 0;
  bool ack_timer_running_ = false;
  std::vector<std::byte> sockbuf_;
  std::size_t sockbuf_head_ = 0;
  sim::Signal rx_ready_;

  obs::Counters counters_;
  obs::Registry::Registration metrics_reg_;
  std::int32_t trk_ = -1;  ///< per-socket trace track
};

}  // namespace meshmp::tcpstack
