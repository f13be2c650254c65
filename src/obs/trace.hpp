#pragma once

// Sim-time event tracer with Chrome/Perfetto trace_event JSON export.
//
// The tracer records what the simulated cluster was doing *in simulated
// time*: scoped spans (DMA of one frame, an ISR, a blocked recv), instant
// events (a retransmission, an interrupt arming) and async spans (descriptor
// post -> completion, a rendezvous id across both hosts). Exported traces
// open directly in https://ui.perfetto.dev or chrome://tracing; nodes map to
// processes and named tracks to threads.
//
// Cost model:
//  * Compiled into every build, off at run time. trace_init_from_env() turns
//    it on when MESHMP_TRACE names an output file.
//  * An idle instrumentation site costs one load of a static flag and a
//    branch: Tracer::wants() is inline and reads static state, so no call
//    is made and no track name is built while tracing is off.
//  * Ring-buffered when on: a fixed-capacity buffer overwrites the oldest
//    events, so tracing a long run keeps the tail and never grows unbounded.
//
// Tracing must not perturb the model. The tracer only *reads* the simulated
// clock; it never schedules events, consumes RNG, or touches component
// state, so modeled results and determinism digests are bit-identical with
// tracing on or off (enforced by test_obs.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace meshmp::sim {
class Engine;
}

namespace meshmp::obs {

/// Event categories, used both for filtering (category mask) and as the
/// "cat" field in the exported JSON.
enum class Cat : std::uint8_t {
  kSim = 0,   ///< engine event dispatch (very high volume)
  kNic = 1,   ///< adapter model: DMA, wire, interrupts, NAPI
  kVia = 2,   ///< M-VIA: VIs, kernel agent, forwarding, reliability
  kMp = 3,    ///< message-passing core: eager/rendezvous, matching
  kColl = 4,  ///< collectives
  kTcp = 5,   ///< TCP comparison stack
  kApp = 6,   ///< benches and applications
};

[[nodiscard]] const char* to_string(Cat cat) noexcept;

constexpr std::uint32_t cat_bit(Cat c) {
  return 1u << static_cast<unsigned>(c);
}
/// Default mask: everything except per-dispatch engine events, which are so
/// numerous they evict everything else from the ring.
constexpr std::uint32_t kDefaultCatMask = 0xffffffffu & ~cat_bit(Cat::kSim);

/// The node id used for events with no owning node (the engine itself).
constexpr std::int32_t kEnginePid = 1 << 20;

struct TraceEvent {
  enum class Phase : std::uint8_t {
    kComplete,    ///< "X": ts + dur
    kInstant,     ///< "i"
    kAsyncBegin,  ///< "b" (id-matched)
    kAsyncEnd,    ///< "e" (id-matched)
    kCounter,     ///< "C"
  };

  sim::Time ts = 0;
  sim::Duration dur = 0;
  const char* name = nullptr;      ///< string literal
  const char* arg_name = nullptr;  ///< string literal or null
  double arg = 0;
  std::uint64_t id = 0;  ///< async span id
  std::int32_t node = 0;
  std::int32_t track = 0;  ///< interned track id (exported as tid)
  Cat cat = Cat::kSim;
  Phase phase = Phase::kInstant;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Starts recording into a fresh ring of `capacity` events.
  void enable(std::size_t capacity = kDefaultCapacity);
  static void disable() noexcept { enabled_ = false; }
  [[nodiscard]] static bool enabled() noexcept { return enabled_; }

  static void set_categories(std::uint32_t mask) noexcept { cat_mask_ = mask; }
  [[nodiscard]] static std::uint32_t categories() noexcept { return cat_mask_; }
  /// The test every instrumentation site makes before anything else.
  [[nodiscard]] static bool wants(Cat c) noexcept {
    return enabled_ && (cat_mask_ & cat_bit(c)) != 0;
  }

  /// Interns a (node, track-name) pair; the id becomes the exported tid.
  /// Interned tracks survive clear()/enable() so cached ids stay valid.
  std::int32_t track(std::int32_t node, std::string name);

  void complete(sim::Time ts, sim::Duration dur, Cat cat, std::int32_t node,
                std::int32_t track, const char* name,
                const char* arg_name = nullptr, double arg = 0);
  void instant(sim::Time ts, Cat cat, std::int32_t node, const char* name,
               const char* arg_name = nullptr, double arg = 0);
  void async_begin(sim::Time ts, Cat cat, std::int32_t node, const char* name,
                   std::uint64_t id, const char* arg_name = nullptr,
                   double arg = 0);
  void async_end(sim::Time ts, Cat cat, std::int32_t node, const char* name,
                 std::uint64_t id);
  void counter(sim::Time ts, Cat cat, std::int32_t node, const char* name,
               double value);

  /// Events currently in the ring, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace_event JSON ({"traceEvents": [...]}), events sorted by
  /// timestamp, with process/thread naming metadata.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false (with a message to stderr) on
  /// I/O failure.
  bool write_json(const std::string& path) const;

  void clear();

  static constexpr std::size_t kDefaultCapacity = 1u << 20;

 private:
  Tracer() = default;
  void push(const TraceEvent& ev);

  // Static so that wants() compiles to a direct load at every site.
  static inline bool enabled_ = false;
  static inline std::uint32_t cat_mask_ = kDefaultCatMask;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< next write position
  bool wrapped_ = false;
  std::uint64_t dropped_ = 0;
  struct Track {
    std::int32_t node;
    std::string name;
  };
  std::vector<Track> tracks_;  ///< index == track id
};

/// Fraction of [t0, t1] on `node` covered by the union of complete spans.
/// This is the acceptance metric for "the trace explains the run": gaps mean
/// simulated time nobody instrumented.
double span_coverage(const std::vector<TraceEvent>& events, std::int32_t node,
                     sim::Time t0, sim::Time t1);

/// Enables tracing when the MESHMP_TRACE environment variable names an
/// output path (MESHMP_TRACE_CATS optionally selects categories as a comma
/// list, e.g. "nic,via,sim"). Returns true when tracing was enabled.
bool trace_init_from_env();
/// Writes the trace to the path captured by trace_init_from_env(), if any.
void trace_flush_env();

/// RAII scoped span: records the simulated time on construction and emits a
/// complete event for [t_ctor, t_dtor] on destruction. Safe to hold across
/// co_awaits — the span then covers the suspended interval, which is exactly
/// what a blocked-recv span should show.
class SpanHandle {
 public:
  SpanHandle(sim::Engine& eng, Cat cat, std::int32_t node, std::int32_t track,
             const char* name, const char* arg_name = nullptr,
             double arg = 0)
      : name_(name),
        arg_name_(arg_name),
        arg_(arg),
        node_(node),
        track_(track),
        cat_(cat) {
    if (Tracer::wants(cat)) start(eng);
  }
  SpanHandle(const SpanHandle&) = delete;
  SpanHandle& operator=(const SpanHandle&) = delete;
  ~SpanHandle() {
    if (eng_ != nullptr) finish();
  }

 private:
  void start(sim::Engine& eng);
  void finish();

  sim::Engine* eng_ = nullptr;  ///< null when tracing was off at construction
  sim::Time t0_ = 0;
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  double arg_ = 0;
  std::int32_t node_ = 0;
  std::int32_t track_ = 0;
  Cat cat_ = Cat::kSim;
};

/// RAII async span: emits an async-begin ("b") on construction and the
/// matching async-end ("e") on destruction. Unlike SpanHandle these render
/// correctly when several instances with distinct ids overlap in time, so
/// they fit protocol phases (a rendezvous, a descriptor's lifetime) that
/// interleave freely on one node.
class AsyncScope {
 public:
  AsyncScope(sim::Engine& eng, Cat cat, std::int32_t node, const char* name,
             std::uint64_t id)
      : name_(name), id_(id), node_(node), cat_(cat) {
    if (Tracer::wants(cat)) begin(eng);
  }
  AsyncScope(const AsyncScope&) = delete;
  AsyncScope& operator=(const AsyncScope&) = delete;
  ~AsyncScope() {
    if (eng_ != nullptr) end();
  }

 private:
  void begin(sim::Engine& eng);
  void end();

  sim::Engine* eng_ = nullptr;  ///< null when tracing was off at construction
  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::int32_t node_ = 0;
  Cat cat_ = Cat::kSim;
};

}  // namespace meshmp::obs

// --------------------------------------------------------------------------
// Instrumentation macros. These are the only spellings components should
// use: each one tests Tracer::wants() (or enabled()) before it records an
// event or builds a track name, so that work costs nothing while tracing is
// off.
//
//   MESHMP_TRACE_SCOPE(eng, cat, node, track_id, "name")
//     RAII span on an interned track (see MESHMP_TRACE_TRACK).
//   MESHMP_TRACE_TRACK(var, node, "track-name")
//     Lazily interns a track id into `var` (an std::int32_t initialized to
//     -1) when tracing is on.
//   MESHMP_TRACE_INSTANT / _ASYNC_BEGIN / _ASYNC_END / _COUNTER
//     Single events; cheap enough for ISR paths.
// --------------------------------------------------------------------------

#define MESHMP_TRACE_CONCAT2(a, b) a##b
#define MESHMP_TRACE_CONCAT(a, b) MESHMP_TRACE_CONCAT2(a, b)

#define MESHMP_TRACE_SCOPE(eng, cat, node, track, name)                     \
  ::meshmp::obs::SpanHandle MESHMP_TRACE_CONCAT(meshmp_trace_span_,         \
                                                __LINE__)(                  \
      (eng), (cat), (node), (track), (name))

#define MESHMP_TRACE_SCOPE_ARG(eng, cat, node, track, name, argname, argval) \
  ::meshmp::obs::SpanHandle MESHMP_TRACE_CONCAT(meshmp_trace_span_,          \
                                                __LINE__)(                   \
      (eng), (cat), (node), (track), (name), (argname),                      \
      static_cast<double>(argval))

#define MESHMP_TRACE_TRACK(var, node, trackname)                            \
  do {                                                                      \
    if ((var) < 0 && ::meshmp::obs::Tracer::enabled()) {                    \
      (var) = ::meshmp::obs::Tracer::instance().track((node), (trackname)); \
    }                                                                       \
  } while (0)

#define MESHMP_TRACE_INSTANT(eng, cat, node, name)                          \
  do {                                                                      \
    if (::meshmp::obs::Tracer::wants(cat)) {                                \
      ::meshmp::obs::Tracer::instance().instant((eng).now(), (cat), (node), \
                                                (name));                    \
    }                                                                       \
  } while (0)

#define MESHMP_TRACE_INSTANT_ARG(eng, cat, node, name, argname, argval)     \
  do {                                                                      \
    if (::meshmp::obs::Tracer::wants(cat)) {                                \
      ::meshmp::obs::Tracer::instance().instant(                            \
          (eng).now(), (cat), (node), (name), (argname),                    \
          static_cast<double>(argval));                                     \
    }                                                                       \
  } while (0)

#define MESHMP_TRACE_ASYNC_SCOPE(eng, cat, node, name, id)                  \
  ::meshmp::obs::AsyncScope MESHMP_TRACE_CONCAT(meshmp_trace_async_,        \
                                                __LINE__)(                  \
      (eng), (cat), (node), (name), (id))

#define MESHMP_TRACE_ASYNC_BEGIN(eng, cat, node, name, id)                  \
  do {                                                                      \
    if (::meshmp::obs::Tracer::wants(cat)) {                                \
      ::meshmp::obs::Tracer::instance().async_begin((eng).now(), (cat),     \
                                                    (node), (name), (id));  \
    }                                                                       \
  } while (0)

#define MESHMP_TRACE_ASYNC_END(eng, cat, node, name, id)                    \
  do {                                                                      \
    if (::meshmp::obs::Tracer::wants(cat)) {                                \
      ::meshmp::obs::Tracer::instance().async_end((eng).now(), (cat),       \
                                                  (node), (name), (id));    \
    }                                                                       \
  } while (0)

#define MESHMP_TRACE_COUNTER(eng, cat, node, name, value)                   \
  do {                                                                      \
    if (::meshmp::obs::Tracer::wants(cat)) {                                \
      ::meshmp::obs::Tracer::instance().counter((eng).now(), (cat), (node), \
                                                (name),                     \
                                                static_cast<double>(value)); \
    }                                                                       \
  } while (0)
