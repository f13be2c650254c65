// meshbench: runs one workload in this (single-threaded) process and prints
// one JSON object with every metric by name and unit.
//
//   meshbench --workload <stream|halo|partition|churn> --seed <n>
//             --seconds <s> --trace <0|1> [--size bench|small|campaign]
//             [--reps <n>] [--oracle-fault]
//
// Untraced (--trace 0): after one untimed warm-up rep, reps of set-up +
// measured phase run while the next
// one is expected to end within --seconds (at least one); set-up alone runs
// three more times after each rep, and at the end until it has fifteen
// samples.
// wall_s and setup_s are the medians of the samples scaled to the reference
// host speed (calib.cpp, kRefNominalS), peak_rss_mb is the process's
// ru_maxrss. Traced (--trace 1): untraced and traced reps alternate, in
// pairs, under the same time rule; the
// per-layer metrics come from the traced reps, and the difference of the
// two kinds' median wall times is host.trace_overhead_s.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "buf/copy.hpp"
#include "buf/pool.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"

namespace meshbench {
namespace {

constexpr int kMinSetups = 15;
constexpr int kSetupsPerRep = 4;
/// What reference_seconds() reads on the 4-vCPU Xeon VM the benchmark was
/// tuned on, when that host runs at its usual speed. The end-to-end times
/// are reported as if every sample had run at that speed: each is scaled by
/// this over the geometric mean of the readings taken just before and just
/// after it. The host there swings by up to 2x for tens of seconds at a
/// time, longer than a run, and the program and the reference slow down
/// roughly together (meshbench/README.md, "Noise and bounds").
constexpr double kRefNominalS = 0.022;

struct Metric {
  double value = 0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (q in [0, 1]) of a sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// v[i] * scale[i].
std::vector<double> scaled(std::vector<double> v,
                           const std::vector<double>& scale) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] *= scale.at(i);
  return v;
}

struct Usage {
  double cpu_s = 0;
  double nivcsw = 0;
  double minflt = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_nivcsw), static_cast<double>(ru.ru_minflt)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The layers' public counters at one instant of a traced rep.
struct Snap {
  obs::Snapshot reg;
  buf::Pool::Stats pool;
  buf::CopyStats copy;
  std::uint64_t events = 0;
  sim::Time now = 0;
};

Snap snap(Workload& w) {
  sim::Engine& eng = w.cluster().engine();
  return {obs::Registry::instance().snapshot_live(),
          buf::Pool::instance().stats(), buf::copy_stats(), eng.executed(),
          eng.now()};
}

/// Host µs per call of Torus::route_table_avoiding, 2- and 3-argument
/// forms, over every source rank, on the largest dead set and the fullest
/// degraded map the workload produced.
struct BfsProbe {
  double two_arg_us = 0;
  double three_arg_us = 0;
  bool degraded = false;
};

volatile std::size_t bfs_sink = 0;

BfsProbe probe_bfs(const topo::Torus& t, std::vector<bool> dead,
                   std::vector<topo::DirMask> degraded) {
  const auto n = static_cast<std::size_t>(t.size());
  if (dead.size() != n) dead.assign(n, false);
  if (degraded.size() != n) degraded.assign(n, 0);
  BfsProbe p;
  p.degraded = std::any_of(degraded.begin(), degraded.end(),
                           [](topo::DirMask m) { return m != 0; });
  auto time_form = [&](const std::function<std::size_t(topo::Rank)>& call) {
    std::vector<double> per_call;
    std::size_t sink = 0;
    for (int round = 0; round < 5; ++round) {
      const double t0 = host_now();
      for (topo::Rank src = 0; src < t.size(); ++src) sink += call(src);
      per_call.push_back((host_now() - t0) * 1e6 / static_cast<double>(n));
    }
    bfs_sink = sink;  // keeps the calls observable to the optimizer
    return median(per_call);
  };
  p.two_arg_us = time_form([&](topo::Rank src) {
    return t.route_table_avoiding(src, dead).size();
  });
  p.three_arg_us = time_form([&](topo::Rank src) {
    return t.route_table_avoiding(src, dead, degraded).size();
  });
  return p;
}

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  Metrics layers;  // traced reps only
  std::uint64_t inputs_digest = 0;
  BfsProbe bfs;
  std::vector<Span> spans;
};

std::unique_ptr<Workload> make(const Options& opt) {
  if (opt.workload == "stream") return make_stream(opt);
  if (opt.workload == "halo") return make_halo(opt);
  if (opt.workload == "partition") return make_partition(opt);
  if (opt.workload == "churn") return make_churn(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

void layer_metrics(Workload& w, const Recorder& rec, const Snap& a,
                   const Snap& b, const Usage& ua, const Usage& ub,
                   RepResult& out) {
  Metrics& m = out.layers;
  auto delta = [&](const std::string& name) {
    return static_cast<double>(b.reg.counter(name) - a.reg.counter(name));
  };
  auto hist = [&](const std::string& name, double q) {
    const obs::HistogramSummary* h = b.reg.hist(name);
    if (h == nullptr || h->count == 0) return 0.0;
    return q == 0.5 ? h->p50 : h->p99;
  };
  auto samples = [&](const std::string& name) {
    auto it = rec.samples().find(name);
    return it == rec.samples().end() ? std::vector<double>{} : it->second;
  };
  sim::Engine& eng = w.cluster().engine();

  const double events = static_cast<double>(b.events - a.events);
  const double run_s = rec.total("sim.run_s");
  m["sim.events"] = {events, "count"};
  m["sim.run_s"] = {run_s, "s"};
  m["sim.ns_per_event"] = {ratio(run_s * 1e9, events), "ns"};
  m["sim.queue_depth_hwm"] = {static_cast<double>(eng.queue_depth_hwm()),
                              "count"};
  m["sim.sim_ms"] = {static_cast<double>(b.now - a.now) * 1e-6, "ms"};
  // 48 bits: exact as a JSON number.
  m["sim.digest"] = {static_cast<double>(eng.digest() & 0xffffffffffffULL),
                     "hash"};

  const double hits = static_cast<double>(b.pool.pool_hits - a.pool.pool_hits);
  const double misses =
      static_cast<double>(b.pool.pool_misses - a.pool.pool_misses);
  m["buf.pool.hits"] = {hits, "count"};
  m["buf.pool.misses"] = {misses, "count"};
  m["buf.pool.hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  m["buf.pool.adopts"] = {
      static_cast<double>(b.pool.adopts - a.pool.adopts), "count"};
  m["buf.copy.charged_copies"] = {
      static_cast<double>(b.copy.copies - a.copy.copies), "count"};
  m["buf.copy.charged_bytes"] = {
      static_cast<double>(b.copy.bytes - a.copy.bytes), "bytes"};

  const double irqs = delta("hw.nic.interrupts");
  m["hw.nic.tx_frames"] = {delta("hw.nic.tx_frames"), "count"};
  m["hw.nic.rx_frames"] = {delta("hw.nic.rx_frames"), "count"};
  m["hw.nic.interrupts"] = {irqs, "count"};
  m["hw.nic.frames_per_irq"] = {ratio(delta("hw.nic.rx_frames"), irqs),
                                "ratio"};
  m["hw.nic.tx_ring_full"] = {delta("hw.nic.tx_ring_full"), "count"};

  const double tx_msgs = delta("via.vi.tx_messages");
  m["via.vi.tx_messages"] = {tx_msgs, "count"};
  m["via.vi.retransmits"] = {delta("via.vi.retransmits"), "count"};
  m["via.vi.retx_per_msg"] = {ratio(delta("via.vi.retransmits"), tx_msgs),
                              "ratio"};
  m["via.agent.fwd_frames"] = {delta("via.agent.fwd_frames"), "count"};
  m["via.agent.table_routed_frames"] = {
      delta("via.agent.table_routed_frames"), "count"};
  m["via.ack_rtt_ns.p50"] = {hist("via.ack_rtt_ns", 0.5), "ns"};
  m["via.ack_rtt_ns.p99"] = {hist("via.ack_rtt_ns", 0.99), "ns"};

  m["mp.build_s"] = {rec.total("mp.build_s"), "s"};
  m["mp.warmup_s"] = {rec.total("mp.warmup_s"), "s"};
  for (const char* k : {"channels_dialed", "eager_tx", "rts_tx", "token_stalls",
                        "unexpected_eager"}) {
    const std::string name = std::string("mp.endpoint.") + k;
    m[name] = {delta(name), "count"};
  }

  m["qmp.halo_sim_us.p50"] = {quantile(samples("qmp.halo_sim_us"), 0.5), "us"};
  m["qmp.halo_sim_us.p99"] = {quantile(samples("qmp.halo_sim_us"), 0.99), "us"};
  m["coll.sum_sim_us.p50"] = {quantile(samples("coll.sum_sim_us"), 0.5), "us"};
  m["coll.sum_sim_us.p99"] = {quantile(samples("coll.sum_sim_us"), 0.99), "us"};
  m["coll.ops"] = {static_cast<double>(w.coll_ops()), "count"};
  m["qmp.iter_host_ms.p50"] = {quantile(samples("qmp.iter_host_ms"), 0.5),
                               "ms"};
  m["qmp.iter_host_ms.p90"] = {quantile(samples("qmp.iter_host_ms"), 0.9),
                               "ms"};

  const double installs = delta("via.agent.route_table_installs");
  const double transitions = static_cast<double>(w.transitions());
  m["cluster.build_s"] = {rec.total("cluster.build_s"), "s"};
  m["cluster.lifecycle.start_s"] = {rec.total("cluster.lifecycle.start_s"),
                                    "s"};
  m["cluster.transitions"] = {transitions, "count"};
  m["cluster.installs_per_transition"] = {ratio(installs, transitions),
                                          "ratio"};
  for (const char* name :
       {"cluster.partition.minority_transitions",
        "cluster.partition.reconcile_waves", "cluster.partition.view_pushes",
        "cluster.partition.partition_rejoins", "cluster.phi.suspects",
        "cluster.phi.dead_declared", "cluster.phi.refutations",
        "net.link.score.mask_updates", "net.link.score.linkstate_applied",
        "net.link.score.quality_route_refreshes"}) {
    m[name] = {delta(name), "count"};
  }
  m["cluster.detection_latency_ns.p50"] = {
      hist("cluster.detection_latency_ns", 0.5), "ns"};
  m["cluster.detection_latency_ns.p99"] = {
      hist("cluster.detection_latency_ns", 0.99), "ns"};
  m["cluster.partition.heal_convergence_ns.p50"] = {
      hist("cluster.partition.heal_convergence_ns", 0.5), "ns"};
  m["cluster.partition.heal_convergence_ns.p99"] = {
      hist("cluster.partition.heal_convergence_ns", 0.99), "ns"};

  out.bfs =
      probe_bfs(w.cluster().torus(), rec.worst_dead(), rec.worst_degraded());
  const double bfs_us =
      out.bfs.degraded ? out.bfs.three_arg_us : out.bfs.two_arg_us;
  m["via.agent.route_table_installs"] = {installs, "count"};
  m["topo.bfs_us"] = {bfs_us, "us"};
  m["topo.route_est_s"] = {installs * bfs_us * 1e-6, "s"};

  m["flt.events_fired"] = {static_cast<double>(w.faults_fired()), "count"};
  m["chk.audit_s"] = {rec.total("chk.audit_s"), "s"};
  m["chk.audit_clean"] = {rec.total("chk.audit_clean"), "bool"};

  m["host.cpu_s"] = {ub.cpu_s - ua.cpu_s, "s"};
  m["host.nivcsw"] = {ub.nivcsw - ua.nivcsw, "count"};
  m["host.minflt"] = {ub.minflt - ua.minflt, "count"};
}

RepResult run_rep(const Options& opt, bool traced, Ops& ops) {
  RepResult out;
  std::unique_ptr<Workload> w = make(opt);
  Recorder rec(traced);
  const double t0 = host_now();
  w->setup(rec);
  out.setup_s = host_now() - t0;

  Snap a;
  if (traced) {
    obs::Registry::instance().reset();  // histograms cover the measured phase
    a = snap(*w);
  }
  const Usage ua = usage();
  const double t1 = host_now();
  {
    Scoped s(rec, "measured");
    w->run(rec, ops);
  }
  out.wall_s = host_now() - t1;
  const Usage ub = usage();
  Snap b;
  if (traced) b = snap(*w);
  w->teardown(rec, ops);
  if (traced) layer_metrics(*w, rec, a, b, ua, ub, out);
  out.inputs_digest = w->inputs_digest();
  out.spans = rec.spans();
  return out;
}

double setup_only(const Options& opt) {
  std::unique_ptr<Workload> w = make(opt);
  Recorder rec(false);
  const double t0 = host_now();
  w->setup(rec);
  const double s = host_now() - t0;
  w->drain();
  return s;
}

void json_str(std::string& o, const std::string& s) {
  o += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  o += '"';
}

void json_num(std::string& o, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  o += buf;
}

void json_nums(std::string& o, const std::vector<double>& v) {
  o += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    o += i ? ", " : "";
    json_num(o, v[i]);
  }
  o += ']';
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "meshbench: %s\nusage: meshbench --workload "
               "<stream|halo|partition|churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--size bench|small|campaign] [--reps <n>] "
               "[--oracle-fault]\n",
               msg);
  return 2;
}

int run_main(int argc, char** argv) {
  // The benchmark measures one execution mode: the sequential engine, no
  // tracer, no digest side-channel. Environment knobs that would change
  // what is measured are refused outright.
  for (const char* var :
       {"MESHMP_THREADS", "MESHMP_TRACE", "MESHMP_DIGEST_OUT"}) {
    if (std::getenv(var) != nullptr) {  // NOLINT(concurrency-mt-unsafe)
      std::fprintf(stderr,
                   "meshbench: refusing to run with %s set; unset it so the "
                   "benchmark measures the sequential, untraced engine\n",
                   var);
      return 2;
    }
  }
  Options opt;
  int fixed_reps = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--size") {
      const std::string s = value();
      if (s == "bench") {
        opt.size = Size::kBench;
      } else if (s == "small") {
        opt.size = Size::kSmall;
      } else if (s == "campaign") {
        opt.size = Size::kCampaign;
      } else {
        return usage_error("bad --size");
      }
    } else if (arg == "--reps") {
      fixed_reps = std::stoi(value());
    } else if (arg == "--oracle-fault") {
      opt.oracle_fault = true;
    } else {
      return usage_error(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) return usage_error("--workload is required");
  (void)make(opt);  // reject unknown workloads before measuring

  Ops ops;
  const double start = host_now();
  std::vector<RepResult> reps;
  std::vector<double> ref_walls;  // untraced reps interleaved with traced ones
  // Another rep (a pair, when traced) starts only if it is expected to end
  // within --seconds, judged by the slowest one so far.
  double longest = 0;
  auto more = [&] {
    if (fixed_reps > 0) return static_cast<int>(reps.size()) < fixed_reps;
    return reps.empty() || host_now() - start + longest < opt.seconds;
  };
  // Untraced, each rep is followed by set-up-only reps, so set-up is sampled
  // across the whole run like the measured phase, not in one burst.
  const bool extra_setups = !opt.trace && fixed_reps == 0;
  std::vector<double> walls;
  std::vector<double> setups;
  // Untraced, the host reference is timed between reps, while no cluster is
  // alive, and every sample is scaled to the reference host by the two
  // readings around it (see kRefNominalS).
  const bool calibrate = !opt.trace;
  std::vector<double> wall_scale;
  std::vector<double> setup_scale;
  std::vector<double> host_refs;
  if (calibrate) {
    // An untimed warm-up rep first, so the first measured rep is not the one
    // that warms caches and the heap, and the first reading meets the heap
    // in the state every later one does. Its ops are not counted: the
    // measured reps run the same script.
    Ops warm_ops;
    (void)run_rep(opt, false, warm_ops);
    (void)reference_seconds();  // the first call pays the page faults
    host_refs.push_back(reference_seconds());
  }
  // Scales the samples taken since the previous reading.
  auto rescale = [&] {
    const double before = host_refs.back();
    host_refs.push_back(reference_seconds());
    const double scale = kRefNominalS / std::sqrt(before * host_refs.back());
    wall_scale.resize(walls.size(), scale);
    setup_scale.resize(setups.size(), scale);
  };
  while (more()) {
    const double t0 = host_now();
    if (opt.trace) ref_walls.push_back(run_rep(opt, false, ops).wall_s);
    reps.push_back(run_rep(opt, opt.trace, ops));
    walls.push_back(reps.back().wall_s);
    setups.push_back(reps.back().setup_s);
    for (int i = 0; extra_setups && i < kSetupsPerRep - 1; ++i) {
      setups.push_back(setup_only(opt));
    }
    if (calibrate) rescale();
    longest = std::max(longest, host_now() - t0);
  }
  if (extra_setups && static_cast<int>(setups.size()) < kMinSetups) {
    while (static_cast<int>(setups.size()) < kMinSetups) {
      setups.push_back(setup_only(opt));
    }
    rescale();
  }

  Metrics metrics;
  if (opt.trace) {
    metrics = reps.back().layers;
    // Host-time layer metrics are medians over the traced reps; counts and
    // modeled values are deterministic, so the last rep's stand.
    for (const char* name :
         {"sim.run_s", "sim.ns_per_event", "mp.build_s", "mp.warmup_s",
          "qmp.iter_host_ms.p50", "qmp.iter_host_ms.p90", "cluster.build_s",
          "cluster.lifecycle.start_s", "topo.bfs_us", "topo.route_est_s",
          "chk.audit_s", "host.cpu_s", "host.nivcsw", "host.minflt"}) {
      std::vector<double> v;
      for (const RepResult& r : reps) v.push_back(r.layers.at(name).value);
      metrics[name].value = median(v);
    }
    metrics["host.trace_overhead_s"] = {median(walls) - median(ref_walls), "s"};
  } else {
    metrics["wall_s"] = {median(scaled(walls, wall_scale)), "s"};
    metrics["setup_s"] = {median(scaled(setups, setup_scale)), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }

  const bool correct = ops.failed() == 0;
  for (const std::string& note : ops.notes()) {
    std::fprintf(stderr, "meshbench: failed op: %s\n", note.c_str());
  }

  std::string o = "{\"workload\": ";
  json_str(o, opt.workload);
  o += ", \"seed\": " + std::to_string(opt.seed);
  o += std::string(", \"trace\": ") + (opt.trace ? "1" : "0");
  o += std::string(", \"size\": ") +
       (opt.size == Size::kSmall      ? "\"small\""
        : opt.size == Size::kCampaign ? "\"campaign\""
                                      : "\"bench\"");
  o += std::string(", \"correct\": ") + (correct ? "true" : "false");
  o += ", \"attempted\": " + std::to_string(ops.attempted());
  o += ", \"failed\": " + std::to_string(ops.failed());
  o += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, mv] : metrics) {
    o += first ? "" : ", ";
    first = false;
    json_str(o, name);
    o += ": {\"value\": ";
    json_num(o, mv.value);
    o += ", \"unit\": ";
    json_str(o, mv.unit);
    o += "}";
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, reps.back().inputs_digest);
  o += "}, \"detail\": {\"inputs_digest\": \"";
  o += hex;
  o += "\", \"reps\": " + std::to_string(reps.size());
  o += ", \"wall_s\": ";
  json_nums(o, walls);
  o += ", \"setup_s\": ";
  json_nums(o, setups);
  if (calibrate) {
    o += ", \"host_ref_s\": ";
    json_nums(o, host_refs);
  }
  if (opt.trace) {
    o += ", \"reference_wall_s\": ";
    json_nums(o, ref_walls);
    o += ", \"topo.bfs2_us\": ";
    json_num(o, reps.back().bfs.two_arg_us);
    o += ", \"topo.bfs3_us\": ";
    json_num(o, reps.back().bfs.three_arg_us);
    o += ", \"spans\": [";
    const std::vector<Span>& spans = reps.back().spans;
    const double base = spans.empty() ? 0.0 : spans.front().start_s;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      o += i ? ", " : "";
      o += "{\"name\": ";
      json_str(o, spans[i].name);
      o += ", \"start_s\": ";
      json_num(o, spans[i].start_s - base);
      o += ", \"dur_s\": ";
      json_num(o, spans[i].dur_s);
      o += ", \"parent\": " + std::to_string(spans[i].parent) + "}";
    }
    o += "]";
  }
  o += ", \"failures\": [";
  for (std::size_t i = 0; i < ops.notes().size(); ++i) {
    o += i ? ", " : "";
    json_str(o, ops.notes()[i]);
  }
  o += "]}}\n";
  std::fputs(o.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace meshbench

int main(int argc, char** argv) {
  try {
    return meshbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meshbench: %s\n", e.what());
    return 2;
  }
}
