#pragma once

// Shared pieces of the meshbench driver: command-line options, the seeded
// input generator, the operation tally every workload checks its outcomes
// into, and the Recorder that holds the traced run's bench-side spans and
// counter snapshots.
//
// A workload is driven in repetitions ("reps"). One rep builds a fresh
// simulated cluster through the public API (set-up), runs the measured phase,
// then drains and checks (teardown). The driver times set-up and the
// measured phase from outside; nothing inside src/ is instrumented for it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "cluster/lifecycle.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "topo/torus.hpp"

namespace meshbench {

using namespace meshmp;

/// Workload scale. kBench is what the benchmark measures; kSmall is the
/// smallest shape of the same script, used by the self-tests; kCampaign is
/// the paper's 4x8x8 shape for the workloads whose kBench shape is smaller
/// (partition, churn).
enum class Size : std::uint8_t { kBench, kSmall, kCampaign };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kBench;
  /// Oracle self-test: the workload deliberately gets one expectation wrong,
  /// so exactly one operation must land in failed_ops.
  bool oracle_fault = false;
};

/// Deterministic input generator (splitmix64). The workload seed reaches the
/// program only through the inputs drawn here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a fold of the generated inputs, reported so the determinism
/// self-test can prove the seed reaches the workload.
class InputDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Outcome tally. One op is one application message, halo receive,
/// collective call or recovery expectation; it fails when it missed its
/// deadline, completed with the wrong status, or delivered wrong bytes or a
/// wrong sum. The first few failures are described on stderr.
class Ops {
 public:
  void check(bool ok, std::string_view what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 8) notes_.emplace_back(what);
  }
  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// Host seconds on the steady clock.
double host_now();

/// Host speed right now: the geometric mean of the seconds three fixed
/// reference kernels take (calib.cpp).
double reference_seconds();

/// One bench-side span: a named host-time interval, nested under `parent`
/// (index into the span list, -1 for a root).
struct Span {
  std::string name;
  double start_s = 0;
  double dur_s = 0;
  int parent = -1;
};

/// Bench-side tracing. Off in the untraced run: every call below is then a
/// branch and nothing else, so the end-to-end numbers measure the program.
/// On in the traced run: spans around the benchmark's calls into each layer,
/// sim-time samples of modeled operations, the engine digest, and the
/// largest failure state the run produced (for the topo probe).
class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Opens a span; returns its index for close(). No-op when off.
  int open(std::string name);
  void close(int span);

  /// Advances the engine inside a `sim.run` span: every engine call of the
  /// measured phase goes through these, so sim.run_s is host time inside
  /// Engine::run / run_until.
  void run(sim::Engine& eng);
  void run_until(sim::Engine& eng, sim::Time t);

  /// A sample of a distribution (modeled sim-time spans, host ms per
  /// iteration).
  void sample(std::string_view name, double v) {
    if (on_) samples_[std::string(name)].push_back(v);
  }
  /// Adds to a named total.
  void add(std::string_view name, double v) {
    if (on_) totals_[std::string(name)] += v;
  }

  /// Captures the largest dead set and the fullest degraded-mask map any
  /// rank of `life` holds right now (the topo probe's inputs).
  void observe_failures(const cluster::ClusterLifecycle& life,
                        const cluster::GigeMeshCluster& c);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& samples()
      const noexcept {
    return samples_;
  }
  [[nodiscard]] double total(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::vector<bool>& worst_dead() const noexcept {
    return worst_dead_;
  }
  [[nodiscard]] const std::vector<topo::DirMask>& worst_degraded()
      const noexcept {
    return worst_degraded_;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  int current_ = -1;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> totals_;
  std::vector<bool> worst_dead_;
  int worst_dead_count_ = -1;
  std::vector<topo::DirMask> worst_degraded_;
  int worst_degraded_count_ = -1;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Recorder& rec, std::string name)
      : rec_(rec), id_(rec.open(std::move(name))) {}
  ~Scoped() { rec_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder& rec_;
  int id_;
};

/// The measured program: a workload's simulated cluster and its script.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the clusters, endpoints, machines, lifecycle and injector, and
  /// dials every channel the measured phase uses. Timed as setup_s.
  virtual void setup(Recorder& rec) = 0;
  /// The measured phase. Timed as wall_s.
  virtual void run(Recorder& rec, Ops& ops) = 0;
  /// Stops service loops and drains the engine; checks that need a quiet
  /// cluster (views, audits) land in `ops`. Untimed.
  virtual void teardown(Recorder& rec, Ops& ops) = 0;
  /// Stops service loops and drains the engine without checking: the end
  /// of a set-up-only rep (set-up is timed more often than the run).
  virtual void drain() {}

  /// The cluster the workload built (valid after setup).
  virtual cluster::GigeMeshCluster& cluster() = 0;
  /// Collective calls the script made (coll.ops).
  [[nodiscard]] virtual std::int64_t coll_ops() const { return 0; }
  /// Membership transitions applied, counted through
  /// ClusterLifecycle::subscribe in the traced run (cluster.transitions).
  [[nodiscard]] virtual std::int64_t transitions() const { return 0; }
  /// Fault events the injector fired (flt.events_fired).
  [[nodiscard]] virtual std::int64_t faults_fired() const { return 0; }
  /// Digest of the generated inputs.
  [[nodiscard]] virtual std::uint64_t inputs_digest() const = 0;
};

std::unique_ptr<Workload> make_stream(const Options& opt);
std::unique_ptr<Workload> make_halo(const Options& opt);
std::unique_ptr<Workload> make_partition(const Options& opt);
std::unique_ptr<Workload> make_churn(const Options& opt);

/// Every cluster runs on the sequential engine: the benchmark measures one
/// execution mode, whatever the environment asks for. Written as a template
/// so the driver keeps compiling if the config loses its thread knob.
template <typename Config>
void pin_sequential(Config& cfg) {
  if constexpr (requires { cfg.threads = 0U; }) cfg.threads = 0U;
}

/// Seeded payload byte at position i of message `salt`.
inline std::byte pattern_byte(std::uint64_t salt, std::size_t i) {
  return static_cast<std::byte>((salt + i * 131 + (i >> 8) * 7) & 0xff);
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t salt);

/// Runs every registered chk quiesce validator inside a `chk.audit` span;
/// a clean audit is one teardown op.
void audit(Recorder& rec, Ops& ops);

/// Stops the lifecycle's service loops and drains the engine.
void stop_and_drain(cluster::ClusterLifecycle& life, sim::Engine& eng);

}  // namespace meshbench
