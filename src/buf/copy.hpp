#pragma once

// The single seam through which every *modeled* payload copy is charged.
//
// The simulator distinguishes simulated copies (cost CPU time in the model:
// bounce-buffer staging, rx-ISR gather, socket-buffer drain) from host-side
// byte movement (a simulation artifact, now mostly eliminated by buf::Slice
// refcounting). Charging all modeled copies through charge_copy() keeps the
// two decoupled and lets tests assert exactly how many bytes the *model*
// copied on a given path — e.g. that a rendezvous transfer moves each
// payload byte exactly once.
//
// Works with both charging contexts without buf depending on hw:
//   hw::IsrContext  -> spend_copy(bytes, hot)   (interrupt context)
//   hw::Cpu         -> copy(bytes, hot)         (process context, kUser)

#include <cstdint>

namespace meshmp::buf {

/// Process-wide tally of the modeled copy charges.
struct CopyStats {
  std::uint64_t copies = 0;  ///< number of charge_copy calls
  std::uint64_t bytes = 0;   ///< total bytes charged
};

namespace detail {
CopyStats& copy_tally() noexcept;
}  // namespace detail

[[nodiscard]] inline CopyStats copy_stats() noexcept {
  return detail::copy_tally();
}
inline void reset_copy_stats() noexcept { detail::copy_tally() = {}; }

/// Charge one modeled copy of `bytes` to `charger` (awaitable). `hot` is the
/// model's cache-residency hint, passed through unchanged.
template <typename Charger>
auto charge_copy(Charger& charger, std::int64_t bytes, bool hot) {
  auto& t = detail::copy_tally();
  ++t.copies;
  t.bytes += static_cast<std::uint64_t>(bytes);
  if constexpr (requires { charger.spend_copy(bytes, hot); }) {
    return charger.spend_copy(bytes, hot);
  } else {
    return charger.copy(bytes, hot);
  }
}

}  // namespace meshmp::buf
