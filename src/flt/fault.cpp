#include "flt/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>

namespace meshmp::flt {

namespace {

bool is_node_event(FaultEvent::Kind k) {
  return k == FaultEvent::Kind::kNodeCrash ||
         k == FaultEvent::Kind::kNodeRestart;
}

bool is_machine_event(FaultEvent::Kind k) {
  return k == FaultEvent::Kind::kPartition || k == FaultEvent::Kind::kHeal;
}

const char* kind_name(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kLinkDown:
      return "link_down";
    case FaultEvent::Kind::kLinkUp:
      return "link_up";
    case FaultEvent::Kind::kLossStart:
      return "loss_start";
    case FaultEvent::Kind::kLossStop:
      return "loss_stop";
    case FaultEvent::Kind::kCorruptStart:
      return "corrupt_start";
    case FaultEvent::Kind::kCorruptStop:
      return "corrupt_stop";
    case FaultEvent::Kind::kStallStart:
      return "stall_start";
    case FaultEvent::Kind::kStallStop:
      return "stall_stop";
    case FaultEvent::Kind::kNodeCrash:
      return "node_crash";
    case FaultEvent::Kind::kNodeRestart:
      return "node_restart";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kHeal:
      return "heal";
    case FaultEvent::Kind::kDegradeStart:
      return "degrade_start";
    case FaultEvent::Kind::kDegradeStop:
      return "degrade_stop";
    case FaultEvent::Kind::kAsymStart:
      return "asym_start";
    case FaultEvent::Kind::kAsymStop:
      return "asym_stop";
    case FaultEvent::Kind::kFlakyStart:
      return "flaky_start";
    case FaultEvent::Kind::kFlakyStop:
      return "flaky_stop";
  }
  return "?";
}

bool valid_prob(double p) { return p >= 0 && p <= 1; }

/// What the event acts on, for error messages: a node, a (node, dir) port,
/// a partition spec, or (for heal) whatever partitions are open.
void fmt_target(char* out, std::size_t n, const FaultEvent& ev,
                const PartitionSpec* spec) {
  switch (ev.kind) {
    case FaultEvent::Kind::kNodeCrash:
    case FaultEvent::Kind::kNodeRestart:
      std::snprintf(out, n, "node %d", static_cast<int>(ev.node));
      return;
    case FaultEvent::Kind::kPartition:
      if (spec != nullptr && spec->kind == PartitionSpec::Kind::kPlane) {
        std::snprintf(out, n, "plane dim=%d cut=%d", spec->dim, spec->cut);
      } else {
        std::snprintf(out, n, "%zu explicit links",
                      spec != nullptr ? spec->links.size() : std::size_t{0});
      }
      return;
    case FaultEvent::Kind::kHeal:
      std::snprintf(out, n, "all open partitions");
      return;
    default:
      std::snprintf(out, n, "node %d dir %c%d", static_cast<int>(ev.node),
                    ev.dir.sign > 0 ? '+' : '-', static_cast<int>(ev.dir.dim));
      return;
  }
}

[[noreturn]] void reject(std::size_t index, const FaultEvent& ev,
                         const PartitionSpec* spec, const char* why) {
  char target[64];
  fmt_target(target, sizeof target, ev, spec);
  char buf[224];
  std::snprintf(buf, sizeof buf, "flt::Schedule: event #%zu (%s at t=%lld, %s): %s",
                index, kind_name(ev.kind), static_cast<long long>(ev.at),
                target, why);
  throw std::invalid_argument(buf);
}

}  // namespace

Injector::Injector(cluster::GigeMeshCluster& cluster, Schedule schedule)
    : cluster_(cluster),
      schedule_(std::move(schedule)),
      gray_reg_(obs::Registry::instance().attach("flt.gray",
                                                 &gray_counters_)) {
  validate();
  // Expand every partition spec into its concrete cable list once, against
  // the validated torus, so apply() cuts a fixed deterministic set.
  partition_links_.reserve(schedule_.partitions().size());
  for (const PartitionSpec& sp : schedule_.partitions()) {
    if (sp.kind == PartitionSpec::Kind::kPlane) {
      partition_links_.push_back(
          cluster_.torus().bisection_links(sp.dim, sp.cut));
    } else {
      partition_links_.push_back(sp.links);
    }
  }
  auto& eng = cluster_.engine();
  for (const FaultEvent& ev : schedule_.events()) {
    eng.schedule_at(ev.at, [this, ev] { apply(ev); }, "fault");
  }
}

void Injector::validate() const {
  const topo::Torus& t = cluster_.torus();
  const sim::Time now = cluster_.engine().now();
  const std::vector<FaultEvent>& evs = schedule_.events();

  for (std::size_t i = 0; i < evs.size(); ++i) {
    const FaultEvent& ev = evs[i];
    const PartitionSpec* sp =
        ev.kind == FaultEvent::Kind::kPartition
            ? &schedule_.partitions().at(static_cast<std::size_t>(ev.spec))
            : nullptr;
    if (ev.node < 0 || ev.node >= t.size()) {
      reject(i, ev, sp, "rank out of range");
    }
    if (ev.at < now) {
      reject(i, ev, sp, "event is in the past");
    }
    if (!is_node_event(ev.kind) && !is_machine_event(ev.kind) &&
        !t.neighbor(ev.node, ev.dir)) {
      reject(i, ev, sp, "no link at (node, dir)");
    }
    if (sp != nullptr) {
      if (sp->kind == PartitionSpec::Kind::kPlane) {
        if (sp->dim < 0 || sp->dim >= t.ndims()) {
          reject(i, ev, sp, "plane dimension out of range");
        }
        if (sp->cut <= 0 || sp->cut >= t.shape()[sp->dim]) {
          reject(i, ev, sp, "plane cut must leave both sides non-empty");
        }
      } else {
        if (sp->links.empty()) {
          reject(i, ev, sp, "explicit link set is empty");
        }
        for (const auto& [node, dir] : sp->links) {
          if (node < 0 || node >= t.size()) {
            reject(i, ev, sp, "link endpoint rank out of range");
          }
          if (!t.neighbor(node, dir)) {
            reject(i, ev, sp, "no link at (node, dir)");
          }
        }
      }
    }
  }

  // Window / lifecycle ordering is checked in time order; ties keep
  // insertion order so a zero-length window is caught as inverted.
  std::vector<std::size_t> order(evs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return evs[a].at < evs[b].at;
  });

  // Open-window times per (port, fault class); -1 means closed.
  chk::FlatMap<std::uint64_t, sim::Time> open;
  chk::FlatMap<topo::Rank, sim::Time> down_since;
  const auto wkey = [](const FaultEvent& ev, std::uint64_t cls) {
    return (cls << 48) | port_key(ev.node, ev.dir);
  };
  const auto open_window = [&](std::size_t i, const FaultEvent& ev,
                               std::uint64_t cls) {
    auto [it, fresh] = open.emplace(wkey(ev, cls), ev.at);
    if (!fresh && it->second >= 0) reject(i, ev, nullptr, "window opened twice");
    it->second = ev.at;
  };
  const auto close_window = [&](std::size_t i, const FaultEvent& ev,
                                std::uint64_t cls) {
    auto it = open.find(wkey(ev, cls));
    if (it == open.end() || it->second < 0) {
      reject(i, ev, nullptr, "stop without an open window");
    }
    if (ev.at <= it->second) reject(i, ev, nullptr, "window is empty or inverted");
    it->second = -1;
  };

  // Partition/heal alternate machine-wide: a heal needs at least one open
  // partition and must fire strictly after the latest one it closes.
  sim::Time last_partition_at = -1;
  int open_partitions = 0;

  for (std::size_t i : order) {
    const FaultEvent& ev = evs[i];
    switch (ev.kind) {
      case FaultEvent::Kind::kLossStart:
        open_window(i, ev, 1);
        break;
      case FaultEvent::Kind::kLossStop:
        close_window(i, ev, 1);
        break;
      case FaultEvent::Kind::kCorruptStart:
        open_window(i, ev, 2);
        break;
      case FaultEvent::Kind::kCorruptStop:
        close_window(i, ev, 2);
        break;
      case FaultEvent::Kind::kStallStart:
        open_window(i, ev, 3);
        break;
      case FaultEvent::Kind::kStallStop:
        close_window(i, ev, 3);
        break;
      case FaultEvent::Kind::kDegradeStart:
        if (ev.bw_fraction <= 0 || ev.bw_fraction > 1) {
          reject(i, ev, nullptr, "bandwidth fraction must be in (0, 1]");
        }
        if (ev.add_latency < 0) {
          reject(i, ev, nullptr, "added latency must be >= 0");
        }
        if (ev.add_latency == 0 && ev.bw_fraction == 1) {
          reject(i, ev, nullptr, "degrade window with no effect");
        }
        open_window(i, ev, 4);
        break;
      case FaultEvent::Kind::kDegradeStop:
        close_window(i, ev, 4);
        break;
      case FaultEvent::Kind::kAsymStart:
        open_window(i, ev, 5);
        break;
      case FaultEvent::Kind::kAsymStop:
        close_window(i, ev, 5);
        break;
      case FaultEvent::Kind::kFlakyStart:
        if (!valid_prob(ev.prob) || !valid_prob(ev.dup_prob) ||
            !valid_prob(ev.reorder_prob)) {
          reject(i, ev, nullptr, "flaky probabilities must be in [0, 1]");
        }
        if (ev.prob == 0 && ev.dup_prob == 0 && ev.reorder_prob == 0) {
          reject(i, ev, nullptr, "flaky window with no effect");
        }
        open_window(i, ev, 6);
        break;
      case FaultEvent::Kind::kFlakyStop:
        close_window(i, ev, 6);
        break;
      case FaultEvent::Kind::kNodeCrash: {
        auto [it, fresh] = down_since.emplace(ev.node, ev.at);
        if (!fresh && it->second >= 0) {
          reject(i, ev, nullptr, "node is already crashed");
        }
        it->second = ev.at;
        break;
      }
      case FaultEvent::Kind::kNodeRestart: {
        auto it = down_since.find(ev.node);
        if (it == down_since.end() || it->second < 0) {
          reject(i, ev, nullptr, "restart without a prior crash");
        }
        if (ev.at <= it->second) {
          reject(i, ev, nullptr, "restart not after the crash");
        }
        it->second = -1;
        break;
      }
      case FaultEvent::Kind::kPartition:
        ++open_partitions;
        if (ev.at > last_partition_at) last_partition_at = ev.at;
        break;
      case FaultEvent::Kind::kHeal:
        if (open_partitions == 0) {
          reject(i, ev, nullptr, "heal without an open partition");
        }
        if (ev.at <= last_partition_at) {
          reject(i, ev, nullptr, "heal not after the partition");
        }
        open_partitions = 0;
        last_partition_at = -1;
        break;
      case FaultEvent::Kind::kLinkDown:
      case FaultEvent::Kind::kLinkUp:
        break;  // carrier writes are idempotent; any order is meaningful
    }
  }
}

void Injector::set_cable_carrier(topo::Rank node, topo::Dir dir, bool up) {
  // A cable has an adapter on each end; pulling it takes both down, exactly
  // like yanking copper out of two NICs at once.
  cluster_.nic(node, dir).set_carrier(up);
  const auto peer = cluster_.torus().neighbor(node, dir);
  cluster_.nic(*peer, dir.opposite()).set_carrier(up);
}

void Injector::apply(const FaultEvent& ev) {
  if (ev.kind == FaultEvent::Kind::kNodeCrash) {
    cluster_.power_fail_node(ev.node);
    counters_.inc("node_crashes");
    return;
  }
  if (ev.kind == FaultEvent::Kind::kNodeRestart) {
    cluster_.power_restore_node(ev.node);
    counters_.inc("node_restarts");
    return;
  }
  if (ev.kind == FaultEvent::Kind::kPartition) {
    for (const auto& [node, dir] :
         partition_links_[static_cast<std::size_t>(ev.spec)]) {
      set_cable_carrier(node, dir, false);
      cut_links_.emplace_back(node, dir);
    }
    counters_.inc("partitions");
    return;
  }
  if (ev.kind == FaultEvent::Kind::kHeal) {
    for (const auto& [node, dir] : cut_links_) {
      set_cable_carrier(node, dir, true);
    }
    cut_links_.clear();
    counters_.inc("heals");
    return;
  }
  hw::Nic& nic = cluster_.nic(ev.node, ev.dir);
  const std::uint64_t key = port_key(ev.node, ev.dir);
  switch (ev.kind) {
    case FaultEvent::Kind::kLinkDown:
      set_cable_carrier(ev.node, ev.dir, false);
      counters_.inc("link_down");
      break;
    case FaultEvent::Kind::kLinkUp:
      set_cable_carrier(ev.node, ev.dir, true);
      counters_.inc("link_up");
      break;
    case FaultEvent::Kind::kLossStart:
      saved_drop_.emplace(key, nic.wire_params().drop_prob);
      nic.wire_params().drop_prob = ev.prob;
      counters_.inc("loss_bursts");
      break;
    case FaultEvent::Kind::kLossStop: {
      auto it = saved_drop_.find(key);
      nic.wire_params().drop_prob = it != saved_drop_.end() ? it->second : 0;
      if (it != saved_drop_.end()) saved_drop_.erase(it);
      break;
    }
    case FaultEvent::Kind::kCorruptStart:
      saved_corrupt_.emplace(key, nic.wire_params().corrupt_prob);
      nic.wire_params().corrupt_prob = ev.prob;
      counters_.inc("corrupt_bursts");
      break;
    case FaultEvent::Kind::kCorruptStop: {
      auto it = saved_corrupt_.find(key);
      nic.wire_params().corrupt_prob =
          it != saved_corrupt_.end() ? it->second : 0;
      if (it != saved_corrupt_.end()) saved_corrupt_.erase(it);
      break;
    }
    case FaultEvent::Kind::kStallStart:
      nic.set_stalled(true);
      counters_.inc("stalls");
      break;
    case FaultEvent::Kind::kStallStop:
      nic.set_stalled(false);
      break;
    case FaultEvent::Kind::kDegradeStart: {
      // A failing cable degrades both directions; apply to the tx params of
      // the adapters on both ends. Propagation only ever *increases* here.
      const auto degrade_port = [&](topo::Rank node, topo::Dir dir) {
        net::LinkParams& w = cluster_.nic(node, dir).wire_params();
        saved_wire_.emplace(port_key(node, dir),
                            std::make_pair(w.bytes_per_sec, w.propagation));
        w.bytes_per_sec *= ev.bw_fraction;
        w.propagation += ev.add_latency;
      };
      const auto peer = cluster_.torus().neighbor(ev.node, ev.dir);
      degrade_port(ev.node, ev.dir);
      degrade_port(*peer, ev.dir.opposite());
      counters_.inc("degrades");
      gray_counters_.inc("degrade_windows");
      break;
    }
    case FaultEvent::Kind::kDegradeStop: {
      const auto restore_port = [&](topo::Rank node, topo::Dir dir) {
        auto it = saved_wire_.find(port_key(node, dir));
        if (it == saved_wire_.end()) return;
        net::LinkParams& w = cluster_.nic(node, dir).wire_params();
        w.bytes_per_sec = it->second.first;
        w.propagation = it->second.second;
        saved_wire_.erase(it);
      };
      const auto peer = cluster_.torus().neighbor(ev.node, ev.dir);
      restore_port(ev.node, ev.dir);
      restore_port(*peer, ev.dir.opposite());
      break;
    }
    case FaultEvent::Kind::kAsymStart:
      nic.set_tx_severed(true);
      counters_.inc("asym_severs");
      gray_counters_.inc("asym_windows");
      break;
    case FaultEvent::Kind::kAsymStop:
      nic.set_tx_severed(false);
      break;
    case FaultEvent::Kind::kFlakyStart: {
      net::LinkParams& w = nic.wire_params();
      saved_flaky_.emplace(
          key, std::array<double, 3>{w.drop_prob, w.dup_prob, w.reorder_prob});
      w.drop_prob = ev.prob;
      w.dup_prob = ev.dup_prob;
      w.reorder_prob = ev.reorder_prob;
      counters_.inc("flaky_bursts");
      gray_counters_.inc("flaky_windows");
      break;
    }
    case FaultEvent::Kind::kFlakyStop: {
      auto it = saved_flaky_.find(key);
      net::LinkParams& w = nic.wire_params();
      w.drop_prob = it != saved_flaky_.end() ? it->second[0] : 0;
      w.dup_prob = it != saved_flaky_.end() ? it->second[1] : 0;
      w.reorder_prob = it != saved_flaky_.end() ? it->second[2] : 0;
      if (it != saved_flaky_.end()) saved_flaky_.erase(it);
      break;
    }
    case FaultEvent::Kind::kNodeCrash:
    case FaultEvent::Kind::kNodeRestart:
    case FaultEvent::Kind::kPartition:
    case FaultEvent::Kind::kHeal:
      break;  // handled above, before the port lookup
  }
}

}  // namespace meshmp::flt
