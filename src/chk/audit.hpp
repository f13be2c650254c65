#pragma once

// Runtime invariant auditing.
//
// Subsystems register *quiesce validators* — closures that verify conservation
// and state-machine invariants (descriptor rings balanced, no leaked resource
// holds, reassembly complete, event queue drained). Validators run only when
// someone calls `Audit::quiesce()`, typically a test or the determinism
// harness after the simulation has drained. Hot paths also make a few inline
// checks in every build and run (a resource released beyond its holds, time
// going backwards at dispatch, a negative tx descriptor count, a cumulative
// ack beyond the send sequence). Each is one integer compare whose failure
// branch calls fail().
//
// A violation produces a labelled report. By default it is printed to stderr
// and the process aborts; tests install a capturing handler (ScopedCapture)
// to assert that a seeded violation is caught.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meshmp::chk {

/// One detected invariant violation.
struct Violation {
  std::string label;    ///< dotted subsystem path, e.g. "sim.resource.cpu"
  std::string message;  ///< what broke, with the observed values
};

/// Process-wide validator registry. Validators and handlers may re-enter
/// fail()/unwatch(), so quiesce() sweeps a snapshot of the registered ids
/// and fail() calls a copy of the handler.
class Audit {
 public:
  static Audit& instance();

  /// A quiesce validator: inspects its subsystem and calls fail() for every
  /// violated invariant.
  using Validator = std::function<void()>;

  /// RAII registration handle; unregisters on destruction. Subsystem objects
  /// hold one as a member so their validator lives exactly as long as they do.
  class Registration {
   public:
    Registration() noexcept = default;
    Registration(Registration&& other) noexcept
        : id_(std::exchange(other.id_, 0)) {}
    Registration& operator=(Registration&& other) noexcept {
      if (this != &other) {
        release();
        id_ = std::exchange(other.id_, 0);
      }
      return *this;
    }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { release(); }

   private:
    friend class Audit;
    explicit Registration(std::uint64_t id) noexcept : id_(id) {}
    void release() noexcept;
    std::uint64_t id_ = 0;
  };

  /// Registers a validator under `label`; runs on every quiesce() until the
  /// returned handle is destroyed.
  [[nodiscard]] Registration watch(std::string label, Validator validator);

  /// Runs every registered validator (in registration order, so reports are
  /// deterministic). Returns the number of violations they raised.
  std::size_t quiesce();

  /// Reports a violation: records it and invokes the failure handler. The
  /// default handler prints a labelled report and aborts.
  void fail(std::string label, std::string message);

  /// The recorded violations (test-only accessor).
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  void clear_violations() { violations_.clear(); }

  using Handler = std::function<void(const Violation&)>;
  /// Swaps the failure handler; returns the previous one (empty = default
  /// print-and-abort behaviour).
  Handler exchange_handler(Handler h);

 private:
  struct Entry {
    std::string label;
    Validator validator;
  };

  Audit() = default;

  /// Unregistration (Registration::release goes through here).
  void unwatch(std::uint64_t id) noexcept;

  std::uint64_t next_id_ = 1;
  // ordered -> deterministic runs
  std::map<std::uint64_t, Entry> entries_;
  std::vector<Violation> violations_;
  Handler handler_;
};

/// Test helper: while alive, violations are recorded instead of aborting.
/// Clears the violation log on entry and exit so tests stay independent.
class ScopedCapture {
 public:
  ScopedCapture();
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;
  ~ScopedCapture();

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return Audit::instance().violations();
  }
  /// True if any recorded violation's label starts with `label_prefix`.
  [[nodiscard]] bool caught(std::string_view label_prefix) const;

 private:
  Audit::Handler previous_;
};

}  // namespace meshmp::chk
