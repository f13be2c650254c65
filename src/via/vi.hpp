#pragma once

// A Virtual Interface: one endpoint of a connected VI pair.
//
// The user-visible surface mirrors the VIA model (paper sec. 2): post receive
// descriptors, post sends, reap completions from a queue; plus RMA writes
// into a peer's registered memory. All kernel work (fragmentation, sequence
// numbers, acks, reassembly, the one receive-side copy) lives in the
// KernelAgent; the Vi holds per-connection state.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "buf/pool.hpp"
#include "chk/audit.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "via/memory.hpp"

namespace meshmp::via {

class KernelAgent;

/// Why a VI entered the error state. Delivered in-band through a structured
/// error completion so blocked receivers wake up instead of hanging.
enum class ViError : std::uint8_t {
  kNone = 0,
  kUnreachable = 1,  ///< retry budget exhausted; peer presumed unreachable
  kMinorityPartition = 2,  ///< refused: this node is on a minority partition
};

[[nodiscard]] const char* to_string(ViError e) noexcept;

/// Stable id for a descriptor post→consume async trace span. Descriptors are
/// consumed in post order (FIFO), so the running post/consume totals pair the
/// begin and end events exactly.
constexpr std::uint64_t desc_trace_id(net::NodeId node, std::uint32_t vi,
                                      std::uint64_t n) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 40) |
         (static_cast<std::uint64_t>(vi & 0xfffffu) << 20) | (n & 0xfffffu);
}

/// A completed receive: the reassembled message plus its 64-bit immediate.
/// When `status != kNone` this is an error completion: `data` is empty and
/// the VI has entered its error state.
struct RecvCompletion {
  std::vector<std::byte> data;
  std::uint64_t immediate = 0;
  ViError status = ViError::kNone;
};

class Vi {
 public:
  Vi(KernelAgent& agent, std::uint32_t id);
  Vi(const Vi&) = delete;
  Vi& operator=(const Vi&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }
  [[nodiscard]] net::NodeId remote_node() const noexcept {
    return remote_node_;
  }
  [[nodiscard]] std::uint32_t remote_vi() const noexcept { return remote_vi_; }

  /// Posts a receive descriptor able to hold a message of up to `max_bytes`.
  /// The number of posted descriptors is exactly what the message-passing
  /// layer advertises as flow-control tokens (paper sec. 5.1).
  void post_recv(std::int64_t max_bytes);
  [[nodiscard]] int posted_recvs() const noexcept {
    return static_cast<int>(recv_descs_.size());
  }

  /// Sends a message; resolves when every fragment is handed to the adapter
  /// (wire transfer continues asynchronously). The vector overload adopts
  /// the bytes into the pool with no copy; fragments alias the slice.
  sim::Task<> send(std::vector<std::byte> data, std::uint64_t immediate = 0);
  sim::Task<> send(buf::Slice data, std::uint64_t immediate = 0);

  /// Remote-memory write into the peer's registered region. Zero-copy on the
  /// user path: the single copy happens in the peer's receive interrupt.
  sim::Task<> rma_write(std::vector<std::byte> data, const MemToken& token,
                        std::uint64_t offset = 0);
  sim::Task<> rma_write(buf::Slice data, const MemToken& token,
                        std::uint64_t offset = 0);

  /// Blocks until the next receive completion and charges the user-level
  /// completion-processing cost.
  sim::Task<RecvCompletion> recv_completion();

  /// True once reliable delivery gave up (retries exhausted).
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// The error that failed the VI (kNone while healthy).
  [[nodiscard]] ViError error() const noexcept { return error_; }

  /// Invoked (at most once) when the VI enters the error state, after the
  /// structured error completion is queued. Upper layers use it to fail
  /// pending sends/rendezvous without polling.
  void set_error_handler(std::function<void(Vi&, ViError)> fn) {
    on_error_ = std::move(fn);
  }

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  friend class KernelAgent;

  /// Quiesce invariants: every posted receive descriptor is accounted for
  /// (consumed or still queued), no half-reassembled message, and no
  /// unacknowledged frames unless delivery gave up.
  void audit_quiesce() const;

  struct Reassembly {
    std::uint32_t msg_id = 0;
    buf::Buffer buf;  ///< pooled landing zone; released into the completion
    std::uint32_t frags_seen = 0;
    std::uint32_t nfrags = 0;
    std::uint64_t immediate = 0;
    bool active = false;
    bool dropping = false;
  };

  KernelAgent& agent_;
  std::uint32_t id_;

  // connection state
  bool connected_ = false;
  net::NodeId remote_node_ = -1;
  std::uint32_t remote_vi_ = 0;
  /// Peer incarnation this connection was established with. Frames stamped
  /// with a different sender epoch are stale retransmits from a previous
  /// incarnation and are discarded.
  std::uint32_t remote_epoch_ = 0;
  sim::Trigger conn_done_;

  // descriptors and completions. The posted/consumed totals back the audit's
  // conservation check: posted == consumed + queued, always.
  std::deque<std::int64_t> recv_descs_;
  std::uint64_t descs_posted_total_ = 0;
  std::uint64_t descs_consumed_total_ = 0;
  sim::Queue<RecvCompletion> completions_;

  // transmit state (reliable delivery)
  std::uint32_t next_msg_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::deque<net::Frame> unacked_;
  sim::Time oldest_unacked_ = 0;
  int retries_ = 0;
  bool retx_running_ = false;
  bool failed_ = false;
  ViError error_ = ViError::kNone;
  std::function<void(Vi&, ViError)> on_error_;

  // receive state (reliable delivery)
  std::uint64_t expected_seq_ = 0;
  int frames_since_ack_ = 0;
  bool ack_timer_running_ = false;
  Reassembly rx_;

  // Serializes the per-VI send work queue: descriptors of one VI transmit in
  // post order even when several coroutines send on it concurrently.
  sim::Resource send_lock_;

  obs::Counters counters_;
  chk::Audit::Registration audit_reg_;
  obs::Registry::Registration metrics_reg_;
  obs::Histogram& msg_bytes_hist_;  ///< message sizes entering send()
  std::int32_t trk_ = -1;           ///< per-VI trace track ("vi<id>")
};

}  // namespace meshmp::via
