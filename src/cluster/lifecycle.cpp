#include "cluster/lifecycle.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "buf/pool.hpp"
#include "sim/sync.hpp"
#include "via/header.hpp"

namespace meshmp::cluster {

namespace {
constexpr std::size_t idx(topo::Rank r) { return static_cast<std::size_t>(r); }
}  // namespace

ClusterLifecycle::ClusterLifecycle(GigeMeshCluster& cluster,
                                   LifecycleParams params)
    : cluster_(cluster),
      params_(params),
      ctl_(idx(cluster.size())),
      observers_(idx(cluster.size())),
      crash_time_(idx(cluster.size()), -1),
      restart_time_(idx(cluster.size()), -1),
      detect_hist_(
          obs::Registry::instance().histogram("cluster.detection_latency_ns")),
      rejoin_hist_(
          obs::Registry::instance().histogram("cluster.rejoin_latency_ns")),
      side_(idx(cluster.size()), QuorumSide::kPrimary),
      minority_since_(idx(cluster.size()), -1),
      heal_pending_(idx(cluster.size()), false),
      counters_reg_(
          obs::Registry::instance().attach("cluster.partition", &counters_)),
      partition_duration_hist_(
          obs::Registry::instance().histogram("cluster.partition.duration_ns")),
      heal_conv_hist_(obs::Registry::instance().histogram(
          "cluster.partition.heal_convergence_ns")),
      link_seen_(idx(cluster.size()),
                 std::vector<std::uint64_t>(idx(cluster.size()), 0)),
      remote_degraded_(idx(cluster.size()),
                       std::vector<topo::DirMask>(idx(cluster.size()), 0)),
      phi_reg_(obs::Registry::instance().attach("cluster.phi", &phi_counters_)),
      score_reg_(
          obs::Registry::instance().attach("net.link.score", &score_counters_)),
      phi_suspect_hist_(obs::Registry::instance().histogram(
          "cluster.phi.suspect_level_x1000")) {
  views_.reserve(idx(cluster.size()));
  quality_.reserve(idx(cluster.size()));
  for (topo::Rank r = 0; r < cluster.size(); ++r) {
    views_.emplace_back(cluster.size());
    quality_.emplace_back(params_.quality, kMaxPorts);
    ctl_[idx(r)].ls_pending.assign(idx(cluster.size()), 0);
  }
}

void ClusterLifecycle::start() {
  assert(!started_ && "lifecycle started twice");
  started_ = true;
  const sim::Time now = cluster_.engine().now();
  for (topo::Rank r = 0; r < cluster_.size(); ++r) {
    ctl_[idx(r)].last_heard.assign(idx(cluster_.size()), now);
    via::KernelAgent& ag = cluster_.agent(r);
    ag.set_control_handler([this, r](const via::ViaHeader& h, net::NodeId src,
                                     const buf::Slice& payload) {
      if (stopped_) return;
      if (h.kind == via::MsgKind::kHeartbeat) {
        on_heartbeat(r, static_cast<topo::Rank>(src), h);
      } else if (h.kind == via::MsgKind::kHeartbeatAck) {
        on_heartbeat_ack(r, static_cast<topo::Rank>(src), h);
      } else if (h.kind == via::MsgKind::kLinkState) {
        on_linkstate_frame(r, payload.data(), payload.size());
      } else if (h.kind == via::MsgKind::kReconcile) {
        on_reconcile(r, h.immediate);
      } else {
        on_membership_frame(r, payload.data(), payload.size());
      }
    });
    // Go-back-N retransmits toward a direct neighbour are loss evidence for
    // the port serving it — the data path's contribution to link scoring.
    ag.set_retransmit_observer([this, r](net::NodeId remote) {
      if (stopped_) return;
      const auto d = dir_toward(r, static_cast<topo::Rank>(remote));
      if (d) quality_[idx(r)].on_retransmit(d->index());
    });
    // Carrier restoration is the heal trigger: a link coming up toward a
    // rank this node believes dead starts the reconciliation sequence.
    ag.set_link_observer([this, r](topo::Dir d, bool up) {
      if (up && started_ && !stopped_) on_carrier_up(r, d);
    });
    ag.listen(kService);
  }
  cluster_.set_crash_hooks([this](topo::Rank r) { on_crash(r); },
                           [this](topo::Rank r) { on_restart(r); });
  for (topo::Rank r = 0; r < cluster_.size(); ++r) {
    heartbeat_loop(r, ctl_[idx(r)].gen).detach();
    monitor_loop(r, ctl_[idx(r)].gen).detach();
    accept_loop(r).detach();
  }
}

void ClusterLifecycle::stop() { stopped_ = true; }

void ClusterLifecycle::subscribe(topo::Rank observer, Observer fn) {
  observers_.at(idx(observer)).push_back(std::move(fn));
}

bool ClusterLifecycle::survivors_agree(topo::Rank subject, Liveness s) const {
  for (topo::Rank r = 0; r < cluster_.size(); ++r) {
    if (r == subject) continue;
    if (!cluster_.agent(r).powered()) continue;
    if (views_[idx(r)].at(subject).state != s) return false;
  }
  return true;
}

bool ClusterLifecycle::all_alive() const {
  for (topo::Rank r = 0; r < cluster_.size(); ++r) {
    if (!cluster_.agent(r).powered()) return false;
    if (views_[idx(r)].count(Liveness::kAlive) != cluster_.size()) return false;
  }
  return true;
}

// -- crash hooks (called by GigeMeshCluster at the fault instant) -----------

void ClusterLifecycle::on_crash(topo::Rank r) {
  if (!started_) return;
  crash_time_[idx(r)] = cluster_.engine().now();
  // Retire the dead node's detector loops at their next tick; its handler
  // sees no frames while unpowered, so its stale view simply freezes.
  ++ctl_[idx(r)].gen;
}

void ClusterLifecycle::on_restart(topo::Rank r) {
  if (!started_) return;
  const sim::Time now = cluster_.engine().now();
  restart_time_[idx(r)] = now;
  const std::uint64_t gen = ++ctl_[idx(r)].gen;
  // The silence clocks restart with the node; without this the monitor would
  // re-declare every neighbour dead from pre-crash timestamps.
  ctl_[idx(r)].last_heard.assign(idx(cluster_.size()), now);
  // Probe/arrival bookkeeping and port scores restart with the hardware;
  // link_version stays monotone so fresh-life floods outrank stale echoes.
  for (DirHealth& dh : ctl_[idx(r)].dirs) dh = DirHealth{};
  quality_[idx(r)] = net::LinkQuality(params_.quality, kMaxPorts);
  link_seen_[idx(r)].assign(idx(cluster_.size()), 0);
  link_seen_[idx(r)][idx(r)] = ctl_[idx(r)].link_version;
  remote_degraded_[idx(r)].assign(idx(cluster_.size()), 0);
  ctl_[idx(r)].ls_pending.assign(idx(cluster_.size()), 0);
  ctl_[idx(r)].ls_any = false;
  heartbeat_loop(r, gen).detach();
  monitor_loop(r, gen).detach();
  rejoin(r, gen).detach();
}

// -- detector coroutines ----------------------------------------------------

sim::Task<> ClusterLifecycle::heartbeat_loop(topo::Rank r, std::uint64_t gen) {
  sim::Engine& eng = cluster_.engine();
  const topo::Torus& t = cluster_.torus();
  for (;;) {
    co_await sim::delay(eng, params_.heartbeat_period);
    if (stopped_ || gen != ctl_[idx(r)].gen) co_return;
    via::KernelAgent& ag = cluster_.agent(r);
    if (!ag.powered()) co_return;
    const sim::Time now = eng.now();
    for (topo::Dir d : t.directions(t.coord(r))) {
      const auto n = t.neighbor(r, d);
      if (!n) continue;
      // No point probing a confirmed corpse; rejoin news revives the probe.
      if (views_[idx(r)].at(*n).state == Liveness::kDead) continue;
      if ((ag.failed_dirs() & topo::dir_bit(d)) != 0) {
        // Carrier is down this way but the neighbour is not condemned (the
        // link-flap detour case): keep its silence clock fed over whatever
        // route still reaches it. msg_id 0 marks a non-probe — no ack.
        ag.send_control(*n, via::MsgKind::kHeartbeat, {});
        continue;
      }
      // Pinned probe: it must exercise the exact cable it monitors even when
      // quality scoring routes data traffic around it — a probe that detours
      // would mask the recovery the hysteresis clear threshold waits for.
      // msg_id packs (dir index << 24 | seq) so the routed ack, which may
      // arrive over any port, still credits the port that was probed.
      DirHealth& dh = ctl_[idx(r)].dirs[static_cast<std::size_t>(d.index())];
      const auto seq = static_cast<std::uint32_t>(++dh.probe_seq & 0xFFFFFFu);
      ag.send_control_dir(
          d, via::MsgKind::kHeartbeat, {}, static_cast<std::uint64_t>(now),
          (static_cast<std::uint32_t>(d.index()) << 24) | seq);
    }
  }
}

sim::Task<> ClusterLifecycle::monitor_loop(topo::Rank r, std::uint64_t gen) {
  sim::Engine& eng = cluster_.engine();
  const topo::Torus& t = cluster_.torus();
  for (;;) {
    co_await sim::delay(eng, params_.heartbeat_period);
    if (stopped_ || gen != ctl_[idx(r)].gen) co_return;
    via::KernelAgent& ag = cluster_.agent(r);
    if (!ag.powered()) co_return;
    const sim::Time now = eng.now();
    NodeCtl& ctl = ctl_[idx(r)];
    net::LinkQuality& lq = quality_[idx(r)];
    // A membership flood storm within the last tick means the wire is busy
    // carrying the cluster's gossip, not dropping probes: acks queue for a
    // tick or more behind hundreds of flood frames. Sampling resumes one
    // quiet tick later — a probe whose ack did land late has advanced
    // probe_ack_seq by then and produces no timeout at all.
    const bool flood_storm =
        ctl.last_member_news >= 0 &&
        now - ctl.last_member_news <= params_.heartbeat_period;
    for (topo::Dir d : t.directions(t.coord(r))) {
      const auto n = t.neighbor(r, d);
      if (!n) continue;
      DirHealth& dh = ctl.dirs[static_cast<std::size_t>(d.index())];
      // Overdue-probe sampling: a probe sent at least two full ticks ago and
      // still unacked is a loss observation. Only the newest such probe is
      // sampled per tick — the EWMA wants a loss *rate*, not a backlog
      // count — and the two-tick grace keeps a storm-delayed ack (membership
      // floods at partition onset queue control frames for most of a tick)
      // from reading as wire loss.
      if (!flood_storm && (ag.failed_dirs() & topo::dir_bit(d)) == 0) {
        const std::uint64_t due = dh.seq_two_ticks_ago;
        if (due > dh.probe_ack_seq && due > dh.timeout_checked) {
          lq.on_probe_timeout(d.index());
          dh.timeout_checked = due;
        }
      }
      dh.seq_two_ticks_ago = dh.seq_at_last_tick;
      dh.seq_at_last_tick = dh.probe_seq;
      const Liveness st = views_[idx(r)].at(*n).state;
      if (st == Liveness::kDead || st == Liveness::kRejoining) continue;
      const sim::Duration silent = now - ctl.last_heard[idx(*n)];
      const double phi = phi_level(ctl, d.index(), silent);
      if (phi >= params_.phi_dead) {
        phi_counters_.inc("dead_declared");
        declare(r, *n, Liveness::kDead);
      } else if (phi >= params_.phi_suspect && st == Liveness::kAlive) {
        phi_suspect_hist_.add(static_cast<sim::Duration>(phi * 1000));
        phi_counters_.inc("suspects");
        declare(r, *n, Liveness::kSuspect);
      }
    }
    // Hysteresis re-score; on any mask flip, retarget local egress and flood
    // the new mask so remote route tables can dodge this node's sick ports.
    if (lq.update_masks()) {
      const auto deg = static_cast<topo::DirMask>(lq.degraded_mask());
      const auto blk = static_cast<topo::DirMask>(lq.black_mask());
      ag.set_quality_masks(deg, blk);
      score_counters_.inc("mask_updates");
      process_link_record(r, LinkRecord{r, static_cast<std::uint32_t>(
                                               deg | blk),
                                        ++ctl.link_version});
    }
    // Flush the pending link-state floods as one batched frame per live
    // neighbour. Coalescing to the tick bounds the fan-out at six frames
    // per node per period no matter how hard the records churn — the
    // re-flood must never become the congestion it is reporting on.
    if (ctl.ls_any) {
      ctl.ls_any = false;
      std::vector<LinkRecord> batch;
      for (topo::Rank q = 0; q < cluster_.size(); ++q) {
        if (ctl.ls_pending[idx(q)] == 0) continue;
        ctl.ls_pending[idx(q)] = 0;
        batch.push_back(
            LinkRecord{q,
                       static_cast<std::uint32_t>(remote_degraded_[idx(r)][idx(q)]),
                       link_seen_[idx(r)][idx(q)]});
      }
      constexpr std::size_t kLsBatch = 64;  // 16 B/record — stays under MTU
      for (std::size_t off = 0; off < batch.size(); off += kLsBatch) {
        const std::size_t cnt = std::min(kLsBatch, batch.size() - off);
        const std::vector<LinkRecord> chunk(
            batch.begin() + static_cast<std::ptrdiff_t>(off),
            batch.begin() + static_cast<std::ptrdiff_t>(off + cnt));
        for (topo::Dir d : t.directions(t.coord(r))) {
          const auto n = t.neighbor(r, d);
          if (!n) continue;
          if (views_[idx(r)].at(*n).state == Liveness::kDead) continue;
          ag.send_control(*n, via::MsgKind::kLinkState,
                          buf::Pool::instance().adopt(encode_links(chunk)));
        }
      }
    }
    if (ctl.routes_dirty) {
      ctl.routes_dirty = false;
      refresh_routes(r);
    }
  }
}

double ClusterLifecycle::phi_level(const NodeCtl& ctl, int dir_index,
                                   sim::Duration silent) const {
  const DirHealth& dh = ctl.dirs[static_cast<std::size_t>(dir_index)];
  // Exponential-arrival phi: phi(t) = -log10 P(silence >= t) = t / (mean *
  // ln 10). The mean never drops below the configured period — two probes
  // landing the same tick must not tighten the detector below its design
  // cadence — but a lossy link stretching real arrivals loosens it.
  double mean = static_cast<double>(params_.heartbeat_period);
  if (dh.nwin > 0) {
    double sum = 0;
    for (std::size_t i = 0; i < dh.nwin; ++i) {
      sum += static_cast<double>(dh.window[i]);
    }
    mean = std::max(mean, sum / static_cast<double>(dh.nwin));
  }
  return 0.43429448190325176 * static_cast<double>(silent) / mean;
}

double ClusterLifecycle::phi(topo::Rank r, topo::Dir d) const {
  const auto n = cluster_.torus().neighbor(r, d);
  if (!n) return 0;
  const NodeCtl& ctl = ctl_[idx(r)];
  const sim::Duration silent =
      cluster_.engine().now() - ctl.last_heard[idx(*n)];
  return phi_level(ctl, d.index(), silent);
}

std::optional<topo::Dir> ClusterLifecycle::dir_toward(topo::Rank from,
                                                      topo::Rank to) const {
  const topo::Torus& t = cluster_.torus();
  for (int i = 0; i < 2 * t.ndims(); ++i) {
    const topo::Dir d = topo::Dir::from_index(i);
    if (t.neighbor(from, d) == to) return d;
  }
  return std::nullopt;
}

// -- rejoin handshake -------------------------------------------------------

sim::Task<> ClusterLifecycle::accept_loop(topo::Rank r) {
  via::KernelAgent& ag = cluster_.agent(r);
  for (;;) {
    via::Vi* vi = co_await ag.accept(kService);
    if (vi == nullptr) co_return;
    vi->post_recv(64);
    vi->post_recv(64);
    drain_completions(*vi).detach();
  }
}

sim::Task<> ClusterLifecycle::drain_completions(via::Vi& vi) {
  for (;;) {
    const via::RecvCompletion c = co_await vi.recv_completion();
    if (c.status != via::ViError::kNone) co_return;
  }
}

sim::Task<> ClusterLifecycle::rejoin(topo::Rank r, std::uint64_t gen) {
  via::KernelAgent& ag = cluster_.agent(r);
  const topo::Torus& t = cluster_.torus();
  // Announce the new incarnation before the handshakes so survivors stop
  // routing around this coordinate as the connection traffic lands.
  process_record(
      r, MemberRecord{r, MemberState{Liveness::kRejoining, ag.epoch(), 1}});
  for (topo::Dir d : t.directions(t.coord(r))) {
    if (stopped_ || gen != ctl_[idx(r)].gen) co_return;
    const auto n = t.neighbor(r, d);
    if (!n) continue;
    if (views_[idx(r)].at(*n).state == Liveness::kDead) continue;
    // Fresh-epoch ConnReq/ConnAck with each live neighbour; the hello is the
    // first message of the new sequence space (seq restarts from zero), so a
    // completed handshake doubles as a sequence-resync proof.
    via::Vi* vi = co_await ag.connect(*n, kService);
    if (vi == nullptr || vi->failed()) continue;
    std::vector<std::byte> hello(8, std::byte{0x5a});
    co_await vi->send(std::move(hello), /*immediate=*/ag.epoch());
  }
  if (stopped_ || gen != ctl_[idx(r)].gen) co_return;
  process_record(
      r, MemberRecord{r, MemberState{Liveness::kAlive, ag.epoch(), 2}});
}

// -- membership plumbing ----------------------------------------------------

void ClusterLifecycle::on_heartbeat(topo::Rank observer, topo::Rank src,
                                    const via::ViaHeader& h) {
  const sim::Time now = cluster_.engine().now();
  NodeCtl& ctl = ctl_[idx(observer)];
  if (h.msg_id != 0) {
    if (const auto d = dir_toward(observer, src)) {
      DirHealth& dh = ctl.dirs[static_cast<std::size_t>(d->index())];
      if (h.msg_id == dh.last_probe_msg) {
        // A flaky wire duplicated the probe frame in flight; the first
        // arrival already fed the window and was acked.
        phi_counters_.inc("dup_probes_ignored");
        return;
      }
      dh.last_probe_msg = h.msg_id;
      if (dh.last_arrival >= 0) {
        dh.window[dh.wpos] = now - dh.last_arrival;
        dh.wpos = (dh.wpos + 1) % kPhiWindow;
        if (dh.nwin < kPhiWindow) ++dh.nwin;
      }
      dh.last_arrival = now;
    }
    // Echo the probe. The ack routes normally (it may detour around a black
    // port) and carries the probe's msg_id and send timestamp back so the
    // prober can credit the right port with an RTT sample.
    cluster_.agent(observer).send_control(src, via::MsgKind::kHeartbeatAck,
                                          {}, h.immediate, h.msg_id);
  }
  ctl.last_heard[idx(src)] = now;
  // A heartbeat refutes suspicion directly; death needs the rejoin protocol.
  if (views_[idx(observer)].at(src).state == Liveness::kSuspect) {
    phi_counters_.inc("refutations");
    declare(observer, src, Liveness::kAlive);
  }
}

void ClusterLifecycle::on_heartbeat_ack(topo::Rank observer, topo::Rank src,
                                        const via::ViaHeader& h) {
  const sim::Time now = cluster_.engine().now();
  NodeCtl& ctl = ctl_[idx(observer)];
  const int di = static_cast<int>(h.msg_id >> 24);
  const std::uint64_t seq = h.msg_id & 0xFFFFFFu;
  if (seq != 0 && di < kMaxPorts) {
    DirHealth& dh = ctl.dirs[static_cast<std::size_t>(di)];
    if (seq > dh.probe_ack_seq) {
      dh.probe_ack_seq = seq;
      quality_[idx(observer)].on_probe_ack(
          di, now - static_cast<sim::Time>(h.immediate));
    }
  }
  // The ack is proof of life even when it detoured around a black port —
  // this is what keeps a one-directionally severed neighbour suspected but
  // never condemned.
  ctl.last_heard[idx(src)] = now;
  if (views_[idx(observer)].at(src).state == Liveness::kSuspect) {
    phi_counters_.inc("refutations");
    declare(observer, src, Liveness::kAlive);
  }
}

void ClusterLifecycle::on_linkstate_frame(topo::Rank observer,
                                          const std::byte* data,
                                          std::size_t bytes) {
  for (const LinkRecord& rec : decode_links(data, bytes)) {
    process_link_record(observer, rec);
  }
}

void ClusterLifecycle::process_link_record(topo::Rank observer,
                                           const LinkRecord& rec) {
  if (rec.rank < 0 || rec.rank >= cluster_.size()) return;
  std::uint64_t& seen = link_seen_[idx(observer)][idx(rec.rank)];
  if (rec.version <= seen) return;  // stale — the flood terminates here
  seen = rec.version;
  remote_degraded_[idx(observer)][idx(rec.rank)] =
      static_cast<topo::DirMask>(rec.mask);
  // Both the route recompute and the re-flood are deferred to the next
  // monitor tick (routes_dirty / ls_pending): a storm of applied records
  // coalesces into one recompute and one batched flood per period instead
  // of a per-record fan-out that feeds the storm.
  NodeCtl& ctl = ctl_[idx(observer)];
  ctl.routes_dirty = true;
  ctl.ls_pending[idx(rec.rank)] = 1;
  ctl.ls_any = true;
  score_counters_.inc("linkstate_applied");
}

void ClusterLifecycle::on_membership_frame(topo::Rank observer,
                                           const std::byte* data,
                                           std::size_t bytes) {
  for (const MemberRecord& rec : MembershipView::decode(data, bytes)) {
    process_record(observer, rec);
  }
}

void ClusterLifecycle::declare(topo::Rank observer, topo::Rank subject,
                               Liveness to) {
  const MemberState& cur = views_[idx(observer)].at(subject);
  process_record(observer,
                 MemberRecord{subject, MemberState{to, cur.incarnation,
                                                   cur.version + 1}});
}

void ClusterLifecycle::process_record(topo::Rank observer,
                                      const MemberRecord& rec) {
  MembershipView& view = views_[idx(observer)];
  const MemberState prev_st = view.at(rec.rank);
  const Liveness prev = prev_st.state;
  if (!view.apply(rec)) return;  // stale — flood terminates here
  const Liveness to = rec.st.state;
  const sim::Time now = cluster_.engine().now();
  ctl_[idx(observer)].last_member_news = now;
  via::KernelAgent& ag = cluster_.agent(observer);

  if (observer != rec.rank && rec.st.incarnation > prev_st.incarnation) {
    // The subject flushed or rebooted since these channels were built; any
    // VI still bound to the older epoch can never complete a handshake.
    ag.peer_reincarnated(rec.rank, rec.st.incarnation);
  }
  if ((prev == Liveness::kDead) != (to == Liveness::kDead)) {
    refresh_routes(observer);
  }
  if (to == Liveness::kDead && prev != Liveness::kDead) {
    // Fast-fail pending traffic instead of burning the retransmit budget.
    ag.peer_declared_dead(rec.rank);
    if (observer != rec.rank && crash_time_[idx(rec.rank)] >= 0) {
      detect_hist_.add(now - crash_time_[idx(rec.rank)]);
    }
  }
  if (to == Liveness::kAlive || to == Liveness::kRejoining) {
    // Fresh life restarts the silence clock, else the monitor re-kills it
    // from a timestamp predating the outage.
    ctl_[idx(observer)].last_heard[idx(rec.rank)] = now;
  }
  if (to == Liveness::kAlive && prev != Liveness::kAlive &&
      observer != rec.rank && restart_time_[idx(rec.rank)] >= 0) {
    rejoin_hist_.add(now - restart_time_[idx(rec.rank)]);
  }
  update_quorum(observer);
  for (const Observer& fn : observers_[idx(observer)]) fn(rec.rank, to);

  // Re-flood news to every live neighbour; apply-is-news gating above is
  // what terminates the flood.
  const topo::Torus& t = cluster_.torus();
  for (topo::Dir d : t.directions(t.coord(observer))) {
    const auto n = t.neighbor(observer, d);
    if (!n) continue;
    if (views_[idx(observer)].at(*n).state == Liveness::kDead) continue;
    ag.send_control(*n, via::MsgKind::kMembership,
                    buf::Pool::instance().adopt(MembershipView::encode({rec})));
  }

  if (to == Liveness::kRejoining && prev == Liveness::kDead &&
      observer != rec.rank && t.distance(observer, rec.rank) == 1) {
    // A dead-believed direct neighbour announced a new life: the healed
    // boundary runs between us. Push our side's story across it so the
    // merge is bidirectional — this is how real deaths behind a partition
    // reach the reconciled side.
    push_view(observer, rec.rank);
  }
  if (heal_start_ >= 0 && heal_pending_[idx(observer)] &&
      view.count(Liveness::kDead) == 0) {
    heal_pending_[idx(observer)] = false;
    heal_conv_hist_.add(now - heal_start_);
    if (--heal_remaining_ == 0) heal_start_ = -1;
  }
}

void ClusterLifecycle::refresh_routes(topo::Rank observer) {
  const std::vector<bool> dead = views_[idx(observer)].dead_set();
  bool any_dead = false;
  for (const bool b : dead) any_dead = any_dead || b;
  const std::vector<topo::DirMask>& degraded = remote_degraded_[idx(observer)];
  bool any_deg = false;
  for (const topo::DirMask m : degraded) any_deg = any_deg || m != 0;
  via::KernelAgent& ag = cluster_.agent(observer);
  const topo::Torus& t = cluster_.torus();
  if (!any_dead && !any_deg) {
    ag.clear_route_table();
  } else if (any_deg) {
    // Quality-aware table: among minimal paths, dodge links whose owners
    // flooded them as degraded/black.
    ag.set_route_table(t.route_table_avoiding(observer, dead, degraded));
    score_counters_.inc("quality_route_refreshes");
  } else {
    ag.set_route_table(t.route_table_avoiding(observer, dead));
  }
}

// -- partition tolerance ------------------------------------------------------

void ClusterLifecycle::update_quorum(topo::Rank r) {
  const QuorumSide s = quorum_side(views_[idx(r)]);
  if (s == side_[idx(r)]) return;
  side_[idx(r)] = s;
  via::KernelAgent& ag = cluster_.agent(r);
  const sim::Time now = cluster_.engine().now();
  if (s == QuorumSide::kMinority) {
    minority_since_[idx(r)] = now;
    ag.set_minority(true);
    counters_.inc("minority_transitions");
  } else {
    ag.set_minority(false);
    counters_.inc("primary_restorations");
    if (minority_since_[idx(r)] >= 0) {
      partition_duration_hist_.add(now - minority_since_[idx(r)]);
      minority_since_[idx(r)] = -1;
    }
  }
}

void ClusterLifecycle::on_carrier_up(topo::Rank r, topo::Dir d) {
  via::KernelAgent& ag = cluster_.agent(r);
  if (!ag.powered()) return;
  const auto n = cluster_.torus().neighbor(r, d);
  if (!n) return;
  if (views_[idx(r)].at(*n).state != Liveness::kDead) return;
  // A link coming back up toward a believed-dead rank is heal evidence —
  // either a partition heal or a node restart; both converge through the
  // same flood merge, so both feed the heal-convergence histogram.
  counters_.inc("carrier_heal_events");
  if (heal_start_ < 0) {
    heal_start_ = cluster_.engine().now();
    heal_remaining_ = 0;
    for (topo::Rank q = 0; q < cluster_.size(); ++q) {
      const bool pending = cluster_.agent(q).powered() &&
                           views_[idx(q)].count(Liveness::kDead) > 0;
      heal_pending_[idx(q)] = pending;
      if (pending) ++heal_remaining_;
    }
  }
  if (side_[idx(r)] == QuorumSide::kMinority) {
    // Minority nodes own the heal: start (or join) the reconcile wave. The
    // primary side stays passive here — its half of the merge happens when
    // the minority's kRejoining records arrive (push_view above).
    on_reconcile(r, ctl_[idx(r)].reconcile_gen + 1);
  }
}

void ClusterLifecycle::on_reconcile(topo::Rank r, std::uint64_t gen) {
  NodeCtl& ctl = ctl_[idx(r)];
  if (gen <= ctl.reconcile_gen) return;  // wave already seen — flood gate
  via::KernelAgent& ag = cluster_.agent(r);
  if (!ag.powered()) return;
  ctl.reconcile_gen = gen;
  counters_.inc("reconcile_waves");
  if (side_[idx(r)] == QuorumSide::kMinority) partition_rejoin(r);
  // Re-flood so the wave reaches minority nodes with no healed link of
  // their own. Runs after partition_rejoin: a reconciled node's route
  // table no longer drops frames toward cross-boundary neighbours.
  const topo::Torus& t = cluster_.torus();
  for (topo::Dir dd : t.directions(t.coord(r))) {
    const auto nb = t.neighbor(r, dd);
    if (!nb) continue;
    if (views_[idx(r)].at(*nb).state == Liveness::kDead) continue;
    ag.send_control(*nb, via::MsgKind::kReconcile, {}, gen);
  }
}

void ClusterLifecycle::partition_rejoin(topo::Rank r) {
  via::KernelAgent& ag = cluster_.agent(r);
  const sim::Time now = cluster_.engine().now();
  counters_.inc("partition_rejoins");
  // 1. Flush every VI under a bumped incarnation epoch: stale retransmits
  //    and half-open channels from the partition era identify themselves
  //    against the new epoch instead of corrupting fresh traffic.
  ag.partition_flush();
  // 2. Retract the partition-era death verdicts. A retracted entry loses to
  //    any authored record, so the post-heal flood merge re-applies the
  //    other side's story — including real deaths behind the partition —
  //    as news. Observers hear kAlive so upper layers reset per-peer state.
  MembershipView& v = views_[idx(r)];
  for (topo::Rank q = 0; q < cluster_.size(); ++q) {
    if (v.at(q).state != Liveness::kDead) continue;
    v.retract(q);
    // Without a fresh silence clock the monitor would re-kill q from its
    // partition-era timestamp before the first healed heartbeat lands.
    ctl_[idx(r)].last_heard[idx(q)] = now;
    for (const Observer& fn : observers_[idx(r)]) fn(q, Liveness::kAlive);
  }
  // 3. Avoidance tables cleared; the view is dead-free again, so the
  //    quorum flips back and the minority send/dial gates lift.
  refresh_routes(r);
  update_quorum(r);
  if (heal_start_ >= 0 && heal_pending_[idx(r)]) {
    heal_pending_[idx(r)] = false;
    heal_conv_hist_.add(now - heal_start_);
    if (--heal_remaining_ == 0) heal_start_ = -1;
  }
  // 4. The rejoin machinery under the bumped epoch: kRejoining flood,
  //    fresh-epoch handshakes with every neighbour, kAlive flood.
  rejoin(r, ctl_[idx(r)].gen).detach();
}

void ClusterLifecycle::push_view(topo::Rank from, topo::Rank to) {
  via::KernelAgent& ag = cluster_.agent(from);
  if (!ag.powered()) return;
  counters_.inc("view_pushes");
  // Batched so each control frame stays under the wire MTU.
  constexpr std::size_t kBatch = 64;
  const MembershipView& v = views_[idx(from)];
  std::vector<MemberRecord> batch;
  batch.reserve(kBatch);
  for (topo::Rank q = 0; q < cluster_.size(); ++q) {
    if (q == to) continue;  // the peer outranks everyone on its own story
    const MemberState& st = v.at(q);
    if (st.state == Liveness::kAlive && st.incarnation == 0 &&
        st.version == 0) {
      continue;  // default record — can never be news
    }
    batch.push_back(MemberRecord{q, st});
    if (batch.size() == kBatch) {
      ag.send_control(
          to, via::MsgKind::kMembership,
          buf::Pool::instance().adopt(MembershipView::encode(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ag.send_control(
        to, via::MsgKind::kMembership,
        buf::Pool::instance().adopt(MembershipView::encode(batch)));
  }
}

}  // namespace meshmp::cluster
