#ifndef HIMPACT_HASH_SIMD_KERNELS_H_
#define HIMPACT_HASH_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "hash/cpu_features.h"

/// \file
/// Hand-vectorized batch kernels behind the `cpu_features.h` dispatch.
///
/// Every kernel here is value-exact: it computes the same canonical field
/// elements / bucket indices as the scalar batch path it replaces, so the
/// sketch state after a batch is byte-identical whichever path ran
/// (`batch_equivalence_test` asserts this under both dispatch levels).
/// The exactness argument, per kernel:
///
///   - Mersenne-61 products are formed as full 64x64->128 multiplies from
///     32-bit limbs (`_mm256_mul_epu32`), then folded with the same
///     shift/mask/conditional-subtract schedule as `ModMersenne61` — all
///     integer ops, no rounding anywhere.
///   - Barrett reduction mirrors `BarrettMod` (reciprocal multiply,
///     wrapping `x - q*d`, fixup subtracts). The quotient undershoots by
///     at most 3, so three conditional-subtract rounds replace the scalar
///     fixup loop. Vector lanes compare signed, hence the `d < 2^31`
///     guard at the dispatch sites: every compared value then fits well
///     below 2^62.
///   - Tabulation hashing is pure XOR of gathered table words.
///
/// The kernels only exist on x86_64 (`HIMPACT_HAVE_AVX2_KERNELS`); they
/// are compiled with `__attribute__((target("avx2")))` so the rest of the
/// translation unit — and the build — stays baseline-ISA. Callers must
/// check `Avx2Active()` before calling.

namespace himpact::simd {

#if defined(__x86_64__) || defined(_M_X64)
#define HIMPACT_HAVE_AVX2_KERNELS 1

/// Tabulation hash of `n` keys. `tables` is the contiguous 8x256 table
/// block (`tables[byte * 256 + value]`), as laid out by `TabulationHash`.
void TabulationHashBatchAvx2(const std::uint64_t* tables,
                             const std::uint64_t* keys, std::uint64_t* out,
                             std::size_t n);

/// Degree-1 Horner over GF(2^61-1) then Barrett reduction into
/// `[0, range)`: the k == 2 fast path of `PairwiseRangeHash::HashBatch`.
/// Requires `range < 2^31` and `barrett == ~0ULL / range`.
void PairwiseRangeHashBatchAvx2(std::uint64_t a0, std::uint64_t a1,
                                std::uint64_t range, std::uint64_t barrett,
                                const std::uint64_t* keys, std::uint64_t* out,
                                std::size_t n);

/// One count-sketch row over a key tile: 2-wise bucket polynomial
/// (Barrett-reduced into `[0, width)`) and 4-wise sign polynomial
/// (parity mapped to +/-1). Requires `width < 2^31` and
/// `barrett == ~0ULL / width`. `bucket_coeffs` holds a_0, a_1;
/// `sign_coeffs` holds a_0..a_3.
void CountSketchRowHashBatchAvx2(const std::uint64_t* bucket_coeffs,
                                 const std::uint64_t* sign_coeffs,
                                 std::uint64_t width, std::uint64_t barrett,
                                 const std::uint64_t* keys,
                                 std::uint64_t* buckets, std::int64_t* signs,
                                 std::size_t n);

#endif  // x86_64

/// True when the AVX2 kernels are compiled in and the active dispatch
/// level selects them. Callers gate every kernel call on this.
inline bool Avx2Active() {
#ifdef HIMPACT_HAVE_AVX2_KERNELS
  return ActiveSimdLevel() == SimdLevel::kAvx2;
#else
  return false;
#endif
}

}  // namespace himpact::simd

#endif  // HIMPACT_HASH_SIMD_KERNELS_H_
