#include "buf/pool.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "buf/copy.hpp"

namespace meshmp::buf {

namespace {

// Slice-by-8 CRC tables: kCrcTable[j][b] is the CRC of byte b followed by j
// zero bytes, so eight lookups fold eight input bytes per iteration. Table 0
// is the classic single-byte table; outputs are bit-identical to the
// byte-at-a-time loop for every input.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < 8; ++j) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr auto kCrcTable = make_crc_tables();

#if defined(__x86_64__) && defined(__GNUC__)
#define MESHMP_CRC_PCLMUL 1
#endif

#if MESHMP_CRC_PCLMUL

// Carry-less-multiplication CRC folding (Intel's PCLMULQDQ scheme for the
// bit-reflected IEEE 802.3 polynomial, as deployed in zlib). Folds 64 bytes
// per iteration, then 16, then Barrett-reduces to 32 bits. Produces exactly
// the table-driven result for every input; dispatched at runtime so the
// table loop remains the portable fallback.
//
// Folding constants: x^(t) mod P for the strides used below (t = 4*128+64,
// 4*128, 128+64, 128, 64) plus the Barrett pair (P', mu).
alignas(16) constexpr std::uint64_t kFold512[2] = {0x0154442bd4,
                                                  0x01c6e41596};
alignas(16) constexpr std::uint64_t kFold128[2] = {0x01751997d0,
                                                  0x00ccaa009e};
alignas(16) constexpr std::uint64_t kFold64[2] = {0x0163cd6124, 0};
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x01db710641,
                                                  0x01f7011641};

/// Processes n bytes (n >= 64 and n % 16 == 0), mapping the raw CRC register
/// state c (already pre/post-conditioned by the caller) to the new state.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const std::byte* p, std::size_t n, std::uint32_t c) {
  const auto* buf = reinterpret_cast<const __m128i*>(p);
  __m128i x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  __m128i x1 = _mm_loadu_si128(buf + 0);
  __m128i x2 = _mm_loadu_si128(buf + 1);
  __m128i x3 = _mm_loadu_si128(buf + 2);
  __m128i x4 = _mm_loadu_si128(buf + 3);
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(c)));
  buf += 4;
  n -= 64;
  while (n >= 64) {
    __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    __m128i x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    __m128i x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    __m128i x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128(buf + 0));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), _mm_loadu_si128(buf + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), _mm_loadu_si128(buf + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), _mm_loadu_si128(buf + 3));
    buf += 4;
    n -= 64;
  }
  // Fold the four lanes into one.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x2);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x3);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x4);
  while (n >= 16) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128(buf));
    ++buf;
    n -= 16;
  }
  // 128 -> 64 bits.
  __m128i mask = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction 64 -> 32 bits.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  x2 = _mm_and_si128(x1, mask);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, mask);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool crc_clmul_supported() {
  static const bool ok = __builtin_cpu_supports("pclmul") != 0 &&
                         __builtin_cpu_supports("sse4.1") != 0;
  return ok;
}

#endif  // MESHMP_CRC_PCLMUL

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  std::uint32_t c = 0xffffffffu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
#if MESHMP_CRC_PCLMUL
  if (n >= 64 && crc_clmul_supported()) {
    const std::size_t chunk = n & ~static_cast<std::size_t>(15);
    c = crc32_clmul(p, chunk, c);
    p += chunk;
    n -= chunk;
  }
#endif
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      // meshmp-lint: host-copy(word loads for the CRC kernel — no modeled
      // bytes move, this is how the checksum hardware model reads its input)
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      c ^= lo;
      c = kCrcTable[7][c & 0xffu] ^ kCrcTable[6][(c >> 8) & 0xffu] ^
          kCrcTable[5][(c >> 16) & 0xffu] ^ kCrcTable[4][c >> 24] ^
          kCrcTable[3][hi & 0xffu] ^ kCrcTable[2][(hi >> 8) & 0xffu] ^
          kCrcTable[1][(hi >> 16) & 0xffu] ^ kCrcTable[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; --n, ++p) {
    c = kCrcTable[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// --- Slice -----------------------------------------------------------------

Slice::Slice(const Slice& other) noexcept
    : ctrl_(other.ctrl_),
      off_(other.off_),
      len_(other.len_),
      crc_(other.crc_),
      crc_known_(other.crc_known_) {
  if (ctrl_ != nullptr) ++ctrl_->refs;
}

Slice::Slice(Slice&& other) noexcept
    : ctrl_(std::exchange(other.ctrl_, nullptr)),
      off_(std::exchange(other.off_, 0)),
      len_(std::exchange(other.len_, 0)),
      crc_(other.crc_),
      crc_known_(std::exchange(other.crc_known_, false)) {}

Slice& Slice::operator=(const Slice& other) noexcept {
  if (this == &other) return *this;
  if (other.ctrl_ != nullptr) ++other.ctrl_->refs;
  release();
  ctrl_ = other.ctrl_;
  off_ = other.off_;
  len_ = other.len_;
  crc_ = other.crc_;
  crc_known_ = other.crc_known_;
  return *this;
}

Slice& Slice::operator=(Slice&& other) noexcept {
  if (this == &other) return *this;
  release();
  ctrl_ = std::exchange(other.ctrl_, nullptr);
  off_ = std::exchange(other.off_, 0);
  len_ = std::exchange(other.len_, 0);
  crc_ = other.crc_;
  crc_known_ = std::exchange(other.crc_known_, false);
  return *this;
}

void Slice::release() noexcept {
  if (ctrl_ != nullptr && --ctrl_->refs == 0) {
    delete ctrl_;
    Pool::instance().drop_one();
  }
  ctrl_ = nullptr;
  len_ = 0;
  off_ = 0;
  crc_known_ = false;
}

Slice Slice::subslice(std::size_t off, std::size_t len) const {
  if (len == 0 || ctrl_ == nullptr) return {};
  if (off == 0 && len == len_) return *this;  // keeps the CRC memo
  ++ctrl_->refs;
  return {ctrl_, off_ + off, len};
}

Slice Slice::corrupted(std::size_t index, std::byte mask) const {
  std::vector<std::byte> copy = to_vector();
  copy[index] ^= mask;
  return Pool::instance().adopt(std::move(copy));
}

std::uint32_t Slice::crc() const {
  if (!crc_known_) {
    crc_ = crc32(span());
    crc_known_ = true;
  }
  return crc_;
}

// --- Buffer ----------------------------------------------------------------

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this == &other) return *this;
  if (live_) Pool::instance().drop_one();
  vec_ = std::move(other.vec_);
  live_ = std::exchange(other.live_, false);
  return *this;
}

Buffer::~Buffer() {
  if (live_) Pool::instance().drop_one();
}

std::vector<std::byte> Buffer::release() && {
  if (live_) {
    live_ = false;
    Pool::instance().drop_one();
  }
  return std::move(vec_);
}

// --- Pool ------------------------------------------------------------------

Pool& Pool::instance() {
  static Pool pool;
  return pool;
}

Pool::Pool()
    : audit_reg_(chk::Audit::instance().watch(
          "buf.pool", [this] { audit_outstanding(); })) {}

void Pool::audit_outstanding() const {
  if (outstanding_ != 0) {
    chk::Audit::instance().fail(
        "buf.pool", std::to_string(outstanding_) +
                        " pooled buffer(s)/slice(s) not returned");
  }
}

Buffer Pool::get(std::size_t bytes) {
  ++stats_.pool_misses;
  ++outstanding_;
  return Buffer(std::vector<std::byte>(bytes));
}

Slice Pool::stage(std::span<const std::byte> src) {
  if (src.empty()) return {};
  ++stats_.pool_misses;
  return wrap({src.begin(), src.end()});
}

Slice Pool::adopt(std::vector<std::byte> v) {
  if (v.empty()) return {};
  ++stats_.adopts;
  return wrap(std::move(v));
}

Slice Pool::wrap(std::vector<std::byte> v) {
  std::size_t n = v.size();
  auto* ctrl = new detail::Ctrl{std::move(v), 1};
  ++outstanding_;
  return {ctrl, 0, n};
}

// --- copy accounting (declared in copy.hpp) --------------------------------

CopyStats& detail::copy_tally() noexcept {
  static CopyStats tally;
  return tally;
}

}  // namespace meshmp::buf
