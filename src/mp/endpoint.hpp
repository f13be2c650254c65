#pragma once

// The common message-passing core both MPI and QMP sit on (paper sec. 5).
//
// Per peer there is one *outgoing* VI (dialed lazily by the sender) and, on
// the peer, one incoming VI managed by its accept loop. On every channel:
//
//  * token flow control: a sender holds one token per in-flight message;
//    tokens mirror the receive descriptors pre-posted on the peer's incoming
//    VI and come back piggybacked on reverse traffic or as explicit credit
//    messages (paper sec. 5.1, bullet 2);
//  * eager protocol below 16 KiB: user buffer -> bounce buffer copy, then a
//    VIA send into a pre-posted descriptor; the receiver copies bounce ->
//    user at match time (two copies total);
//  * rendezvous + RMA at/above 16 KiB: RTS announcement, receiver-side
//    matching, RTR with a registered-memory token, sender RMA write
//    (zero-copy: the only copy is the kernel's receive-interrupt copy), FIN.
//
// Receiver-side matching supports MPI wildcards; RTRs are matched on the
// *sender* side by rendezvous id (the paper's sender-side matching).

#include <cstdint>
#include <deque>
#include <optional>
#include <memory>
#include <vector>

#include "buf/pool.hpp"
#include "chk/audit.hpp"
#include "chk/flat_map.hpp"
#include "mp/params.hpp"
#include "mp/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "via/agent.hpp"

namespace meshmp::mp {

struct Message {
  int src = -1;
  int tag = 0;
  std::vector<std::byte> data;
  /// False when the receive was error-completed (the peer was declared dead
  /// and the posted receive cancelled) instead of matched; data is empty.
  bool ok = true;
};

/// Outcome of a send. Failures are structured, not exceptional: an
/// unreachable peer (dead link with no surviving detour, retry budget
/// exhausted) reports kUnreachable instead of hanging or aborting, and the
/// channel stays failed for subsequent sends. A node on a minority
/// partition refuses to open new channels at all — kMinorityPartition —
/// until quorum is restored by healing.
enum class SendStatus : std::uint8_t {
  kOk = 0,
  kUnreachable = 1,
  kMinorityPartition = 2,
};

class Endpoint {
 public:
  static constexpr int kAny = -1;

  Endpoint(via::KernelAgent& agent, CoreParams params);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int rank() const noexcept { return agent_.node_id(); }
  [[nodiscard]] via::KernelAgent& agent() noexcept { return agent_; }
  [[nodiscard]] sim::Engine& engine() noexcept {
    return agent_.node().cpu().engine();
  }
  [[nodiscard]] const CoreParams& params() const noexcept { return params_; }

  /// Sends `data` to rank `dst` with `tag` (0..kMaxTag). Completes when the
  /// buffer is reusable: immediately after the bounce copy for eager sends,
  /// after the matching receive was found for rendezvous sends. Returns
  /// kUnreachable when reliable delivery to `dst` has given up.
  /// The vector overload adopts the bytes into the buffer pool; the slice
  /// overload lets callers (e.g. collectives) share one staged payload
  /// across several sends without host copies.
  sim::Task<SendStatus> send(int dst, int tag, std::vector<std::byte> data);
  sim::Task<SendStatus> send(int dst, int tag, buf::Slice data);

  /// Receives the next message matching (src, tag); kAny is a wildcard.
  /// When tag != kAny, only bits selected by `tag_mask` participate in the
  /// match — MPI uses this to keep ANY_TAG inside the user tag class.
  sim::Task<Message> recv(int src = kAny, int tag = kAny, int tag_mask = ~0);

  /// Metadata of a matchable incoming message (MPI_Probe-style).
  struct ProbeResult {
    int src = 0;
    int tag = 0;
    std::int64_t bytes = 0;
  };

  /// Blocks until a message matching (src, tag) has arrived but not been
  /// received, and returns its envelope without consuming it.
  sim::Task<ProbeResult> probe(int src = kAny, int tag = kAny,
                               int tag_mask = ~0);

  /// Non-blocking probe.
  std::optional<ProbeResult> iprobe(int src = kAny, int tag = kAny,
                                    int tag_mask = ~0);

  /// Error-completes posted-but-unmatched receives: every blocked recv whose
  /// source filter names `src` (or every posted recv when src == kAny) wakes
  /// with msg.ok == false instead of hanging on a peer that will never send.
  /// Upper layers call this when the failure detector confirms a death.
  void cancel_posted_recvs(int src = kAny);

  /// Forgets a *failed* channel to `dst` so the next send re-dials instead
  /// of failing fast forever. Upper layers call this when membership says
  /// the peer is alive again (rejoin, partition heal). A healthy channel is
  /// left untouched; senders still blocked on the failed channel complete
  /// with their original error.
  void reset_peer(int dst);

  [[nodiscard]] const obs::Counters& counters() const noexcept {
    return counters_;
  }

 private:
  struct OutChannel {
    explicit OutChannel(sim::Engine& eng) : token_ready(eng), dialed(eng) {}
    via::Vi* vi = nullptr;
    int tokens = 0;
    sim::Signal token_ready;
    bool dialing = false;
    bool failed = false;  ///< underlying VI gave up; sends fail fast
    sim::Trigger dialed;
  };

  struct InVi {
    via::Vi* vi = nullptr;
    int returnable = 0;  ///< consumed descriptors not yet credited back
  };

  struct PostedRecv {
    int src = kAny;
    int tag = kAny;
    int tag_mask = ~0;
    bool done = false;
    Message msg;
    std::unique_ptr<sim::Trigger> ready;
  };

  struct Unexpected {
    int src = 0;
    int tag = 0;
    bool is_rts = false;
    std::vector<std::byte> data;  // eager payload
    std::uint32_t rts_id = 0;
    std::uint64_t rts_size = 0;
  };

  struct PendingRndvSend {
    buf::Slice data;  ///< pinned send buffer, shared with the RMA write
    int dst = 0;
    bool failed = false;  ///< channel died before the receiver matched
    std::unique_ptr<sim::Trigger> matched;
  };

  struct RndvRecv {
    via::MemToken token;
    std::shared_ptr<PostedRecv> posted;
    int src = 0;
    int tag = 0;
    std::uint64_t size = 0;
  };

  static std::uint64_t rndv_key(int src, std::uint32_t id) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           id;
  }

  sim::Task<OutChannel*> out_channel(int dst);
  /// Acquires one flow-control token, or returns false once the channel has
  /// failed (failure notifies token_ready so stalled senders wake up).
  sim::Task<bool> take_token(OutChannel& ch);
  /// Marks the channel to `dst` failed and fails every send blocked on it:
  /// token waiters wake and bail, pending rendezvous to `dst` complete with
  /// an error. Idempotent.
  void fail_channel(int dst, OutChannel& ch);
  /// Quiesce invariants: token counts within [0, params.tokens], no pending
  /// rendezvous on either side, no posted-but-unmatched receives.
  void audit_quiesce() const;
  /// Attaches any pending credits for `peer`'s incoming VI to `imm`.
  void piggyback_credits(int peer, Imm& imm);
  void apply_credits(const Imm& imm);

  sim::Task<> accept_loop();
  sim::Task<> pump(via::Vi* vi, int peer);
  sim::Task<> handle_eager(int src, int tag, std::vector<std::byte> data);
  sim::Task<> handle_rts(int src, const RtsBody& rts);
  sim::Task<> issue_rtr(std::shared_ptr<PostedRecv> posted, int src,
                        std::uint32_t id, std::uint64_t size, int tag);
  sim::Task<> handle_rtr(int src, const RtrBody& rtr);
  sim::Task<> handle_fin(int src, std::uint32_t id);
  sim::Task<> maybe_return_credits(int peer, InVi& in);
  sim::Task<> deliver_local(int tag, buf::Slice data);

  static bool tag_matches(int want, int mask, int got) {
    return want == kAny || (want & mask) == (got & mask);
  }
  /// First posted receive compatible with (src, tag), or null.
  std::shared_ptr<PostedRecv> match_posted(int src, int tag);
  void complete(PostedRecv& posted, Message msg);

  via::KernelAgent& agent_;
  CoreParams params_;

  // Flat maps: audit_quiesce and fail_channel iterate these, and wake order
  // must not depend on hash-bucket layout. Channel/InVi objects sit behind
  // unique_ptr, so references survive map growth.
  chk::FlatMap<int, std::unique_ptr<OutChannel>> out_;
  chk::FlatMap<std::uint32_t, OutChannel*> out_by_vi_;  // local vi id
  chk::FlatMap<int, std::vector<std::unique_ptr<InVi>>> in_;
  // Channels replaced by reset_peer. Senders woken by fail_channel resume
  // *after* the reset (Signal::notify_all posts through the engine), so the
  // failed object must outlive them; they finish with their original error.
  std::vector<std::unique_ptr<OutChannel>> retired_;

  std::deque<std::shared_ptr<PostedRecv>> posted_;
  std::deque<Unexpected> unexpected_;
  std::unique_ptr<sim::Signal> unexpected_arrived_;

  // shared_ptr: handle_rtr may still be mid-flight on an entry when a channel
  // failure completes (and erases) the owning send.
  std::uint32_t next_rndv_id_ = 1;
  chk::FlatMap<std::uint32_t, std::shared_ptr<PendingRndvSend>> pending_rndv_;
  chk::FlatMap<std::uint64_t, RndvRecv> rndv_recv_;

  obs::Counters counters_;
  chk::Audit::Registration audit_reg_;
  obs::Registry::Registration metrics_reg_;
  obs::Histogram& eager_bytes_hist_;  ///< eager-path send sizes
  obs::Histogram& rndv_bytes_hist_;   ///< rendezvous-path send sizes
  std::uint64_t trace_send_seq_ = 0;  ///< async span ids for send phases

  // Service coroutines are owned (not detached) so endpoint teardown frees
  // their frames; last members, destroyed before anything they reference.
  sim::Task<> accept_task_;
  std::vector<sim::Task<>> pump_tasks_;
};

}  // namespace meshmp::mp
