// Hardware CRC32C backend: the single translation unit built with
// -msse4.2 (see src/CMakeLists.txt). Entered only after the cpuid
// probe in crc32c.cc reports SSE4.2, mirroring how the AVX2 GEMM
// micro-kernel TU is gated.

#include "common/crc32c.h"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>

#include <cstring>

namespace relserve {
namespace crc32c {
namespace internal {

namespace {

#if defined(__x86_64__)

// One crc32q chain is latency-bound: each instruction waits on the
// last one's result, so the unit sits idle two cycles in three. A long
// buffer runs three independent chains over three consecutive streams
// instead, each chain but the first starting from zero, and the three
// registers are combined afterwards: a CRC register extended over n
// zero bytes is the register times x^(8n) modulo the polynomial, and
// CRC is linear, so crc(A || B) = crc(A) * x^(8|B|) ^ crc0(B). The
// multiplication by x^(8n) for a fixed stream length n is a 4 x 256
// table (one entry per register byte). This is the technique of Mark
// Adler's crc32c.c; the bits are the single chain's bits.
constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
// Buffers of at least 3 * kLong bytes take three kLong streams at a
// time, then 3 * kShort bytes at a time; a single chain takes the rest.
constexpr size_t kLong = 8192;
constexpr size_t kShort = 256;

// a * b modulo the polynomial, both reflected (x^0 is the top bit).
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) modulo the polynomial: what n zero bytes multiply a register
// by.
uint32_t ZeroBytesFactor(size_t n) {
  uint32_t factor = 1u << 31;  // x^0
  uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) factor = MultModP(factor, square);
    square = MultModP(square, square);
  }
  return factor;
}

// Extends a register over `n` zero bytes, one lookup per register byte.
struct ZeroExtension {
  uint32_t t[4][256];

  explicit ZeroExtension(size_t n) {
    const uint32_t factor = ZeroBytesFactor(n);
    for (uint32_t k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        t[k][b] = MultModP(factor, b << (8 * k));
      }
    }
  }

  uint64_t Apply(uint64_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][(crc >> 24) & 0xFF];
  }
};

uint64_t Load64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// Extends register `c0` over the 3 * len bytes at `data`, one chain
// per len-byte stream.
uint64_t ThreeStreams(uint64_t c0, const char* data, size_t len,
                      const ZeroExtension& over_len) {
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  for (size_t i = 0; i < len; i += 8) {
    c0 = _mm_crc32_u64(c0, Load64(data + i));
    c1 = _mm_crc32_u64(c1, Load64(data + len + i));
    c2 = _mm_crc32_u64(c2, Load64(data + 2 * len + i));
  }
  return over_len.Apply(over_len.Apply(c0) ^ c1) ^ c2;
}

#endif  // __x86_64__

}  // namespace

uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n) {
  uint32_t c = ~crc;
#if defined(__x86_64__)
  uint64_t c64 = c;
  if (n >= 3 * kShort) {
    static const ZeroExtension over_long(kLong);
    static const ZeroExtension over_short(kShort);
    for (; n >= 3 * kLong; data += 3 * kLong, n -= 3 * kLong) {
      c64 = ThreeStreams(c64, data, kLong, over_long);
    }
    for (; n >= 3 * kShort; data += 3 * kShort, n -= 3 * kShort) {
      c64 = ThreeStreams(c64, data, kShort, over_short);
    }
  }
  for (; n >= 8; data += 8, n -= 8) {
    c64 = _mm_crc32_u64(c64, Load64(data));
  }
  c = static_cast<uint32_t>(c64);
#endif
  while (n > 0) {
    c = _mm_crc32_u8(c, static_cast<unsigned char>(*data));
    ++data;
    --n;
  }
  return ~c;
}

}  // namespace internal
}  // namespace crc32c
}  // namespace relserve

#else  // non-x86: never dispatched to; satisfy the symbol.

namespace relserve {
namespace crc32c {
namespace internal {

uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n) {
  return ExtendScalar(crc, data, n);
}

}  // namespace internal
}  // namespace crc32c
}  // namespace relserve

#endif
