#include "harness.hpp"

#include <chrono>
#include <cstdio>

#include "chk/audit.hpp"

namespace meshbench {

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = pattern_byte(salt, i);
  return v;
}

void audit(Recorder& rec, Ops& ops) {
  Scoped s(rec, "chk.audit");
  chk::ScopedCapture capture;
  (void)chk::Audit::instance().quiesce();
  for (const chk::Violation& v : capture.violations()) {
    std::fprintf(stderr, "meshbench: audit [%s]: %s\n", v.label.c_str(),
                 v.message.c_str());
  }
  const bool clean = capture.violations().empty();
  ops.check(clean, "chk audit found violations at quiesce");
  rec.add("chk.audit_clean", clean ? 1.0 : 0.0);
}

void stop_and_drain(cluster::ClusterLifecycle& life, sim::Engine& eng) {
  life.stop();
  eng.run();
}

int Recorder::open(std::string name) {
  if (!on_) return -1;
  spans_.push_back({std::move(name), host_now(), 0.0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Recorder::close(int span) {
  if (!on_ || span < 0) return;
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.dur_s = host_now() - s.start_s;
  current_ = s.parent;
  totals_[s.name + "_s"] += s.dur_s;
}

void Recorder::run(sim::Engine& eng) {
  Scoped s(*this, "sim.run");
  eng.run();
}

void Recorder::run_until(sim::Engine& eng, sim::Time t) {
  Scoped s(*this, "sim.run");
  eng.run_until(t);
}

void Recorder::observe_failures(const cluster::ClusterLifecycle& life,
                                const cluster::GigeMeshCluster& c) {
  if (!on_) return;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    std::vector<bool> dead = life.view(r).dead_set();
    int n = 0;
    for (const bool b : dead) n += b ? 1 : 0;
    if (n > worst_dead_count_) {
      worst_dead_count_ = n;
      worst_dead_ = std::move(dead);
    }
    std::vector<topo::DirMask> deg(static_cast<std::size_t>(c.size()));
    int m = 0;
    for (topo::Rank s = 0; s < c.size(); ++s) {
      deg[static_cast<std::size_t>(s)] = life.degraded_belief(r, s);
      m += deg[static_cast<std::size_t>(s)] != 0 ? 1 : 0;
    }
    if (m > worst_degraded_count_) {
      worst_degraded_count_ = m;
      worst_degraded_ = std::move(deg);
    }
  }
}

}  // namespace meshbench
