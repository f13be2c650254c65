// R4 fixture: raw threading primitives in simulator code. The rule covers
// every file under src/ (the engine core included), so this file stands in
// for any src/<subsystem>/ source. Lint-only — never compiled.

#include <atomic>  // LINT-EXPECT[R4]
#include <mutex>   // LINT-EXPECT[R4]

namespace fixture {

struct Counters {
  std::atomic<int> hits{0};  // LINT-EXPECT[R4]
};

inline void spawn_worker() {
  std::thread t([] {});  // LINT-EXPECT[R4]
  t.join();
}

inline int guarded_read() {
  static std::mutex mu;  // LINT-EXPECT[R4]
  std::lock_guard<std::mutex> lk(mu);  // LINT-EXPECT[R4]
  return 0;
}

inline void fenced() {
  std::atomic_thread_fence(std::memory_order_acquire);  // LINT-EXPECT[R4]
}

// Suppressed: an audited exception keeps its reason next to the use.
// meshmp-lint: raw-threading-ok(process-wide relaxed stats, host-side only)
inline long& host_stat_slot() {
  static std::atomic<long> slot{0};
  return reinterpret_cast<long&>(slot);
}

}  // namespace fixture
