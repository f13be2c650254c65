#pragma once

// Reduction operators working on raw byte buffers (the collectives move
// bytes; the operator knows the element type).

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>

namespace meshmp::coll {

struct ReduceOp {
  /// combine(acc, in): acc[i] = acc[i] (op) in[i], elementwise over bytes.
  std::function<void(std::span<std::byte>, std::span<const std::byte>)>
      combine;
  /// Arithmetic cost charged to the CPU per combined byte.
  double flops_per_byte = 0.0;
};

namespace detail {

template <typename T, typename F>
void combine_typed(std::span<std::byte> acc, std::span<const std::byte> in,
                   F f) {
  if (acc.size() != in.size() || acc.size() % sizeof(T) != 0) {
    throw std::invalid_argument("ReduceOp: buffer size mismatch");
  }
  const std::size_t n = acc.size() / sizeof(T);
  for (std::size_t i = 0; i < n; ++i) {
    T a;
    T b;
    // meshmp-lint: host-copy(type-punned element loads/stores of the combine
    // arithmetic, not a payload move; no bytes change buffers here)
    std::memcpy(&a, acc.data() + i * sizeof(T), sizeof(T));
    std::memcpy(&b, in.data() + i * sizeof(T), sizeof(T));
    a = f(a, b);
    std::memcpy(acc.data() + i * sizeof(T), &a, sizeof(T));
  }
}

}  // namespace detail

template <typename T>
ReduceOp sum_op() {
  return ReduceOp{
      [](std::span<std::byte> acc, std::span<const std::byte> in) {
        detail::combine_typed<T>(acc, in, [](T a, T b) { return a + b; });
      },
      1.0 / sizeof(T)};
}

template <typename T>
ReduceOp max_op() {
  return ReduceOp{
      [](std::span<std::byte> acc, std::span<const std::byte> in) {
        detail::combine_typed<T>(acc, in,
                                 [](T a, T b) { return a > b ? a : b; });
      },
      1.0 / sizeof(T)};
}

/// The paper's barrier: global combining with a null reduction.
inline ReduceOp null_op() {
  return ReduceOp{[](std::span<std::byte>, std::span<const std::byte>) {},
                  0.0};
}

}  // namespace meshmp::coll
