#include "hash/simd_kernels.h"

#ifdef HIMPACT_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include "hash/k_independent.h"

// Every function in this file carries target("avx2") so the build stays
// baseline-ISA outside it; dispatch (cpu_features.h) guarantees these
// bodies only execute on hosts with AVX2.
#define HIMPACT_AVX2 __attribute__((target("avx2")))

namespace himpact::simd {
namespace {

// 64x64 -> 128-bit multiply per lane from 32-bit limbs. With
// a*b = (aH*bH)<<64 + (aH*bL + aL*bH)<<32 + aL*bL, the carry chain below
// never overflows 64 bits: hl + (ll>>32) <= (2^32-1)^2 + 2^32-1 < 2^64,
// and likewise for the cross-term accumulation.
struct U128x4 {
  __m256i hi;
  __m256i lo;
};

HIMPACT_AVX2 inline U128x4 Mul64(__m256i a, __m256i b) {
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  const __m256i t2 = _mm256_add_epi64(lh, _mm256_and_si256(t, mask32));
  U128x4 out;
  out.lo = _mm256_or_si256(_mm256_slli_epi64(t2, 32),
                           _mm256_and_si256(ll, mask32));
  out.hi = _mm256_add_epi64(hh, _mm256_add_epi64(_mm256_srli_epi64(t, 32),
                                                 _mm256_srli_epi64(t2, 32)));
  return out;
}

// x - d where x >= d, else x. Signed compare: all call sites keep both
// operands < 2^62, so the sign bit is never set.
HIMPACT_AVX2 inline __m256i CondSub(__m256i x, __m256i d) {
  const __m256i lt = _mm256_cmpgt_epi64(d, x);  // lanes where x < d
  return _mm256_sub_epi64(x, _mm256_andnot_si256(lt, d));
}

HIMPACT_AVX2 inline __m256i M61v() {
  return _mm256_set1_epi64x(static_cast<long long>(kMersenne61));
}

// x mod (2^61-1) for arbitrary u64 x: one fold (hi <= 7) plus one
// conditional subtract; canonical result in [0, 2^61-1).
HIMPACT_AVX2 inline __m256i ModRawM61(__m256i x) {
  const __m256i m61 = M61v();
  const __m256i sum =
      _mm256_add_epi64(_mm256_and_si256(x, m61), _mm256_srli_epi64(x, 61));
  return CondSub(sum, m61);
}

// (a * b) mod (2^61-1) for a, b < 2^61: the 122-bit product folds as
// x>>61 = (hi<<3)|(lo>>61) < 2^61, so lo61 + fold < 2^62 and two
// conditional subtracts canonicalize — the same schedule as the scalar
// ModMersenne61 (whose second fold term is zero for these inputs).
HIMPACT_AVX2 inline __m256i MulModM61(__m256i a, __m256i b) {
  const __m256i m61 = M61v();
  const U128x4 p = Mul64(a, b);
  const __m256i fold = _mm256_or_si256(_mm256_slli_epi64(p.hi, 3),
                                       _mm256_srli_epi64(p.lo, 61));
  const __m256i sum = _mm256_add_epi64(_mm256_and_si256(p.lo, m61), fold);
  return CondSub(CondSub(sum, m61), m61);
}

// (a + b) mod (2^61-1) for canonical a, b.
HIMPACT_AVX2 inline __m256i AddModM61(__m256i a, __m256i b) {
  return CondSub(_mm256_add_epi64(a, b), M61v());
}

// BarrettMod(x, d, m) for x < 2^61, d < 2^31, m = ~0ULL/d. The scalar
// quotient undershoots by at most 3, so r = x - q*d < 4d < 2^33 and
// three conditional-subtract rounds replace the fixup loop exactly.
// q*d mod 2^64 needs only two 32x32 multiplies because d < 2^32.
HIMPACT_AVX2 inline __m256i BarrettModV(__m256i x, __m256i d, __m256i m) {
  const __m256i q = Mul64(x, m).hi;
  const __m256i qd = _mm256_add_epi64(
      _mm256_mul_epu32(q, d),
      _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(q, 32), d), 32));
  __m256i r = _mm256_sub_epi64(x, qd);
  r = CondSub(r, d);
  r = CondSub(r, d);
  return CondSub(r, d);
}

}  // namespace

HIMPACT_AVX2 void TabulationHashBatchAvx2(const std::uint64_t* tables,
                                          const std::uint64_t* keys,
                                          std::uint64_t* out, std::size_t n) {
  const __m256i byte_mask = _mm256_set1_epi64x(0xff);
  const auto* base = reinterpret_cast<const long long*>(tables);
  std::size_t i = 0;
  // Two 4-lane groups in flight so the eight serial gathers per group
  // overlap across groups instead of back-to-back stalling.
  for (; i + 8 <= n; i += 8) {
    const __m256i xa =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i xb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 4));
    __m256i ha = _mm256_setzero_si256();
    __m256i hb = _mm256_setzero_si256();
    for (int byte = 0; byte < 8; ++byte) {
      const long long* table = base + byte * 256;
      const __m256i ia = _mm256_and_si256(
          _mm256_srli_epi64(xa, 8 * byte), byte_mask);
      const __m256i ib = _mm256_and_si256(
          _mm256_srli_epi64(xb, 8 * byte), byte_mask);
      ha = _mm256_xor_si256(ha, _mm256_i64gather_epi64(table, ia, 8));
      hb = _mm256_xor_si256(hb, _mm256_i64gather_epi64(table, ib, 8));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), ha);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), hb);
  }
  for (; i < n; ++i) {
    const std::uint64_t x = keys[i];
    std::uint64_t h = 0;
    for (int byte = 0; byte < 8; ++byte) {
      h ^= tables[byte * 256 + ((x >> (8 * byte)) & 0xff)];
    }
    out[i] = h;
  }
}

HIMPACT_AVX2 void PairwiseRangeHashBatchAvx2(
    std::uint64_t a0, std::uint64_t a1, std::uint64_t range,
    std::uint64_t barrett, const std::uint64_t* keys, std::uint64_t* out,
    std::size_t n) {
  const __m256i va0 = _mm256_set1_epi64x(static_cast<long long>(a0));
  const __m256i va1 = _mm256_set1_epi64x(static_cast<long long>(a1));
  const __m256i vd = _mm256_set1_epi64x(static_cast<long long>(range));
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(barrett));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i xr = ModRawM61(x);
    const __m256i acc = AddModM61(MulModM61(va1, xr), va0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        BarrettModV(acc, vd, vm));
  }
  for (; i < n; ++i) {
    const std::uint64_t xr = keys[i] % kMersenne61;
    std::uint64_t acc = ModMersenne61(static_cast<unsigned __int128>(a1) * xr);
    acc += a0;
    if (acc >= kMersenne61) acc -= kMersenne61;
    out[i] = BarrettMod(acc, range, barrett);
  }
}

HIMPACT_AVX2 void CountSketchRowHashBatchAvx2(
    const std::uint64_t* bucket_coeffs, const std::uint64_t* sign_coeffs,
    std::uint64_t width, std::uint64_t barrett, const std::uint64_t* keys,
    std::uint64_t* buckets, std::int64_t* signs, std::size_t n) {
  const __m256i vb0 =
      _mm256_set1_epi64x(static_cast<long long>(bucket_coeffs[0]));
  const __m256i vb1 =
      _mm256_set1_epi64x(static_cast<long long>(bucket_coeffs[1]));
  const __m256i vs0 =
      _mm256_set1_epi64x(static_cast<long long>(sign_coeffs[0]));
  const __m256i vs1 =
      _mm256_set1_epi64x(static_cast<long long>(sign_coeffs[1]));
  const __m256i vs2 =
      _mm256_set1_epi64x(static_cast<long long>(sign_coeffs[2]));
  const __m256i vs3 =
      _mm256_set1_epi64x(static_cast<long long>(sign_coeffs[3]));
  const __m256i vd = _mm256_set1_epi64x(static_cast<long long>(width));
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(barrett));
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i xr = ModRawM61(x);
    const __m256i b = AddModM61(MulModM61(vb1, xr), vb0);
    __m256i s = AddModM61(MulModM61(vs3, xr), vs2);
    s = AddModM61(MulModM61(s, xr), vs1);
    s = AddModM61(MulModM61(s, xr), vs0);
    // sign = 1 - 2 * (s & 1): +1 on even parity, -1 on odd.
    const __m256i sign =
        _mm256_sub_epi64(one, _mm256_slli_epi64(_mm256_and_si256(s, one), 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(buckets + i),
                        BarrettModV(b, vd, vm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(signs + i), sign);
  }
  for (; i < n; ++i) {
    const std::uint64_t xr = keys[i] % kMersenne61;
    std::uint64_t b = ModMersenne61(
        static_cast<unsigned __int128>(bucket_coeffs[1]) * xr);
    b += bucket_coeffs[0];
    if (b >= kMersenne61) b -= kMersenne61;
    std::uint64_t s = sign_coeffs[3];
    for (int c = 2; c >= 0; --c) {
      s = ModMersenne61(static_cast<unsigned __int128>(s) * xr) +
          sign_coeffs[c];
      if (s >= kMersenne61) s -= kMersenne61;
    }
    buckets[i] = BarrettMod(b, width, barrett);
    signs[i] = (s & 1) == 0 ? 1 : -1;
  }
}

}  // namespace himpact::simd

#endif  // HIMPACT_HAVE_AVX2_KERNELS
