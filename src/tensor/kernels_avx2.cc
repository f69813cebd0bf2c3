// AVX2+FMA implementations of the f64, f32 and int8 scoring micro-kernels
// and of the top-k row scans.
//
// This TU — and only this TU — is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt), so the intrinsics below are legal here while the
// rest of the build stays at its baseline ISA. Whether these kernels are
// *used* is a separate, runtime decision made by kernels::Active() from
// CPUID, so a binary built on an AVX2 machine still runs (on the scalar
// fallback) on one without it.
//
// Summation order (f32): each output element accumulates its d terms in
// ascending-k order in a single lane, matching the scalar kernels' order;
// the only difference is FMA (one rounding per term instead of two), which
// the parity tests bound. The f64 GEMM keeps the separate multiply and add,
// so it is bit-identical to the scalar reference.
//
// Int8 reduction: k is processed in pairs. The two bt rows' 16-byte tiles
// are byte-interleaved (_mm_unpacklo/hi_epi8) then sign-extended
// (_mm256_cvtepi8_epi16), which lands (row_k[j], row_k1[j]) in the two s16
// halves of i32 lane j IN ORDER — no repair permute needed. One
// _mm256_madd_epi16 against the broadcast activation pair (x[k], x[k+1])
// then adds x[k]*bt[k][j] + x[k+1]*bt[k+1][j] into exact i32 lanes.
// (The u8-operand _mm256_maddubs_epi16 would saturate its pairwise s16 sum
// and break exactness, so it is deliberately not used.) Because the i32
// accumulation never rounds and the f32 scale-out order is fixed, these
// kernels are bit-identical to the scalar int8 reference.
#include "src/tensor/kernels.h"

#if defined(SMGCN_KERNELS_AVX2)

#include <immintrin.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace smgcn {
namespace tensor {
namespace kernels {

namespace {

float Avx2DotF32(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k), acc);
  }
  // Horizontal reduction of the 8 partial sums.
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
  __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x1));
  float total = _mm_cvtss_f32(sum1);
  for (; k < n; ++k) total += a[k] * b[k];
  return total;
}

/// Computes out[j0, j0+count) for one query row — the ragged-edge helper
/// shared by the GEMV and the blocked GEMM.
void Avx2GemvTail(const float* x, const float* bt, std::size_t d,
                  std::size_t h, std::size_t j0, std::size_t count,
                  float* out) {
  std::size_t j = j0;
  const std::size_t j_end = j0 + count;
  for (; j + 8 <= j_end; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t k = 0; k < d; ++k) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(x[k]),
                            _mm256_loadu_ps(bt + k * h + j), acc);
    }
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < j_end; ++j) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < d; ++k) acc += x[k] * bt[k * h + j];
    out[j] = acc;
  }
}

/// One query against a j-tile of herbs: accumulators for [j0, j0+width)
/// live in registers across the whole k loop, streaming bt column tiles.
/// width is 32 herbs (4 ymm) in the main loop.
void Avx2GemvF32(const float* x, const float* bt, std::size_t d,
                 std::size_t h, float* out) {
  std::size_t j = 0;
  for (; j + 32 <= h; j += 32) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (std::size_t k = 0; k < d; ++k) {
      const __m256 xk = _mm256_set1_ps(x[k]);
      const float* row = bt + k * h + j;
      acc0 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(row), acc0);
      acc1 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(row + 8), acc1);
      acc2 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(row + 16), acc2);
      acc3 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(row + 24), acc3);
    }
    _mm256_storeu_ps(out + j, acc0);
    _mm256_storeu_ps(out + j + 8, acc1);
    _mm256_storeu_ps(out + j + 16, acc2);
    _mm256_storeu_ps(out + j + 24, acc3);
  }
  for (; j + 8 <= h; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t k = 0; k < d; ++k) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(x[k]),
                            _mm256_loadu_ps(bt + k * h + j), acc);
    }
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < h; ++j) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < d; ++k) acc += x[k] * bt[k * h + j];
    out[j] = acc;
  }
}

/// Register-blocked batched GEMM: 4 queries x 16 herbs (8 ymm accumulators)
/// per tile; each bt load is reused by all 4 queries in the block.
void Avx2GemmF32(const float* a, const float* bt, std::size_t b,
                 std::size_t d, std::size_t h, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= b; i += 4) {
    const float* a0 = a + (i + 0) * d;
    const float* a1 = a + (i + 1) * d;
    const float* a2 = a + (i + 2) * d;
    const float* a3 = a + (i + 3) * d;
    float* o0 = out + (i + 0) * h;
    float* o1 = out + (i + 1) * h;
    float* o2 = out + (i + 2) * h;
    float* o3 = out + (i + 3) * h;
    std::size_t j = 0;
    for (; j + 16 <= h; j += 16) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      for (std::size_t k = 0; k < d; ++k) {
        const float* row = bt + k * h + j;
        const __m256 b0 = _mm256_loadu_ps(row);
        const __m256 b1 = _mm256_loadu_ps(row + 8);
        const __m256 v0 = _mm256_set1_ps(a0[k]);
        const __m256 v1 = _mm256_set1_ps(a1[k]);
        const __m256 v2 = _mm256_set1_ps(a2[k]);
        const __m256 v3 = _mm256_set1_ps(a3[k]);
        c00 = _mm256_fmadd_ps(v0, b0, c00);
        c01 = _mm256_fmadd_ps(v0, b1, c01);
        c10 = _mm256_fmadd_ps(v1, b0, c10);
        c11 = _mm256_fmadd_ps(v1, b1, c11);
        c20 = _mm256_fmadd_ps(v2, b0, c20);
        c21 = _mm256_fmadd_ps(v2, b1, c21);
        c30 = _mm256_fmadd_ps(v3, b0, c30);
        c31 = _mm256_fmadd_ps(v3, b1, c31);
      }
      _mm256_storeu_ps(o0 + j, c00);
      _mm256_storeu_ps(o0 + j + 8, c01);
      _mm256_storeu_ps(o1 + j, c10);
      _mm256_storeu_ps(o1 + j + 8, c11);
      _mm256_storeu_ps(o2 + j, c20);
      _mm256_storeu_ps(o2 + j + 8, c21);
      _mm256_storeu_ps(o3 + j, c30);
      _mm256_storeu_ps(o3 + j + 8, c31);
    }
    if (j < h) {
      // Ragged herb tail: fall back to the GEMV tile per query row.
      const std::size_t tail = h - j;
      Avx2GemvTail(a0, bt, d, h, j, tail, o0);
      Avx2GemvTail(a1, bt, d, h, j, tail, o1);
      Avx2GemvTail(a2, bt, d, h, j, tail, o2);
      Avx2GemvTail(a3, bt, d, h, j, tail, o3);
    }
  }
  // Ragged query tail: plain GEMV per remaining row.
  for (; i < b; ++i) {
    Avx2GemvF32(a + i * d, bt, d, h, out + i * h);
  }
}

// ---------------------------------------------------------------------------
// f64 reference GEMM
// ---------------------------------------------------------------------------
//
// Every lane is one output element that starts at 0.0 and takes
// add(acc, mul(a[i,k], bt[k,j])) for k ascending: the scalar reference's
// order and roundings exactly (mul then add, never FMA).

/// One query row against herbs [j0, h): 16-herb tiles (four independent
/// add chains, enough to cover the add latency), then 4-herb tiles, then
/// scalar.
void Avx2GemmF64Row(const double* x, const double* bt, std::size_t d,
                    std::size_t h, std::size_t j0, double* out) {
  std::size_t j = j0;
  for (; j + 16 <= h; j += 16) {
    __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
    __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < d; ++k) {
      const double* row = bt + k * h + j;
      const __m256d v = _mm256_set1_pd(x[k]);
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(v, _mm256_loadu_pd(row)));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(v, _mm256_loadu_pd(row + 4)));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(v, _mm256_loadu_pd(row + 8)));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(v, _mm256_loadu_pd(row + 12)));
    }
    _mm256_storeu_pd(out + j, c0);
    _mm256_storeu_pd(out + j + 4, c1);
    _mm256_storeu_pd(out + j + 8, c2);
    _mm256_storeu_pd(out + j + 12, c3);
  }
  for (; j + 4 <= h; j += 4) {
    __m256d c = _mm256_setzero_pd();
    for (std::size_t k = 0; k < d; ++k) {
      c = _mm256_add_pd(c, _mm256_mul_pd(_mm256_set1_pd(x[k]),
                                         _mm256_loadu_pd(bt + k * h + j)));
    }
    _mm256_storeu_pd(out + j, c);
  }
  for (; j < h; ++j) {
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) acc += x[k] * bt[k * h + j];
    out[j] = acc;
  }
}

/// Register-blocked f64 GEMM: 4 queries x 8 herbs (8 ymm accumulators) per
/// tile, so each pair of bt loads feeds four queries. Ragged herb and
/// query edges go through the row helper.
void Avx2GemmF64(const double* a, const double* bt, std::size_t b,
                 std::size_t d, std::size_t h, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= b; i += 4) {
    const double* a0 = a + (i + 0) * d;
    const double* a1 = a + (i + 1) * d;
    const double* a2 = a + (i + 2) * d;
    const double* a3 = a + (i + 3) * d;
    double* o0 = out + (i + 0) * h;
    double* o1 = out + (i + 1) * h;
    double* o2 = out + (i + 2) * h;
    double* o3 = out + (i + 3) * h;
    std::size_t j = 0;
    for (; j + 8 <= h; j += 8) {
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
      __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < d; ++k) {
        const double* row = bt + k * h + j;
        const __m256d b0 = _mm256_loadu_pd(row);
        const __m256d b1 = _mm256_loadu_pd(row + 4);
        const __m256d v0 = _mm256_set1_pd(a0[k]);
        const __m256d v1 = _mm256_set1_pd(a1[k]);
        const __m256d v2 = _mm256_set1_pd(a2[k]);
        const __m256d v3 = _mm256_set1_pd(a3[k]);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(v0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(v0, b1));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(v1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(v1, b1));
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(v2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(v2, b1));
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(v3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(v3, b1));
      }
      _mm256_storeu_pd(o0 + j, c00);
      _mm256_storeu_pd(o0 + j + 4, c01);
      _mm256_storeu_pd(o1 + j, c10);
      _mm256_storeu_pd(o1 + j + 4, c11);
      _mm256_storeu_pd(o2 + j, c20);
      _mm256_storeu_pd(o2 + j + 4, c21);
      _mm256_storeu_pd(o3 + j, c30);
      _mm256_storeu_pd(o3 + j + 4, c31);
    }
    if (j < h) {
      Avx2GemmF64Row(a0, bt, d, h, j, o0);
      Avx2GemmF64Row(a1, bt, d, h, j, o1);
      Avx2GemmF64Row(a2, bt, d, h, j, o2);
      Avx2GemmF64Row(a3, bt, d, h, j, o3);
    }
  }
  for (; i < b; ++i) Avx2GemmF64Row(a + i * d, bt, d, h, 0, out + i * h);
}

// ---------------------------------------------------------------------------
// int8 kernels
// ---------------------------------------------------------------------------

std::int32_t Avx2DotS8(const std::int8_t* a, const std::int8_t* b,
                       std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k)));
    const __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + k)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  // Horizontal reduction of the 8 exact i32 partial sums.
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i sum4 = _mm_add_epi32(lo, hi);
  __m128i sum2 = _mm_add_epi32(sum4, _mm_srli_si128(sum4, 8));
  __m128i sum1 = _mm_add_epi32(sum2, _mm_srli_si128(sum2, 4));
  std::int32_t total = _mm_cvtsi128_si32(sum1);
  for (; k < n; ++k) {
    total += static_cast<std::int32_t>(a[k]) * static_cast<std::int32_t>(b[k]);
  }
  return total;
}

/// Broadcasts the s16 activation pair (x0 in the low half, x1 in the high
/// half of every i32 lane) for _mm256_madd_epi16 against interleaved rows.
inline __m256i BroadcastS8Pair(std::int8_t x0, std::int8_t x1) {
  const std::uint32_t packed =
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(
           static_cast<std::int16_t>(x0)))) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(
           static_cast<std::int16_t>(x1)))
       << 16);
  return _mm256_set1_epi32(static_cast<int>(packed));
}

/// Interleaved sign-extended view of a 16-herb tile of two adjacent bt rows:
/// i32 lane j of `lo` holds (r0[j], r1[j]) as s16 halves for j in [0, 8),
/// `hi` the same for j in [8, 16).
struct S8PairTile {
  __m256i lo;
  __m256i hi;
};

inline S8PairTile LoadS8PairTile(const std::int8_t* r0, const std::int8_t* r1) {
  const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0));
  const __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1));
  S8PairTile t;
  t.lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
  t.hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
  return t;
}

/// Applies out[j..j+16) = ((float)acc * x_scale) * col_scales[j..j+16) with
/// explicit separate multiplies — the same two roundings in the same order
/// as the scalar reference (never fused; bit-identity depends on it).
inline void ScaleOut16(__m256i acc_lo, __m256i acc_hi, float x_scale,
                       const float* col_scales, float* out) {
  const __m256 xs = _mm256_set1_ps(x_scale);
  const __m256 f_lo = _mm256_mul_ps(_mm256_cvtepi32_ps(acc_lo), xs);
  const __m256 f_hi = _mm256_mul_ps(_mm256_cvtepi32_ps(acc_hi), xs);
  _mm256_storeu_ps(out, _mm256_mul_ps(f_lo, _mm256_loadu_ps(col_scales)));
  _mm256_storeu_ps(out + 8,
                   _mm256_mul_ps(f_hi, _mm256_loadu_ps(col_scales + 8)));
}

/// 8-herb variant of ScaleOut16 for the GEMM's 8-wide tiles (identical
/// operation order per element).
inline void ScaleOut8(__m256i acc, float x_scale, const float* col_scales,
                      float* out) {
  const __m256 f =
      _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_set1_ps(x_scale));
  _mm256_storeu_ps(out, _mm256_mul_ps(f, _mm256_loadu_ps(col_scales)));
}

/// Scalar herb tail (exact i32 accumulation, same fixed scale order).
void Avx2GemvS8Tail(const std::int8_t* x, const std::int8_t* bt, std::size_t d,
                    std::size_t h, std::size_t j0, float x_scale,
                    const float* col_scales, float* out) {
  for (std::size_t j = j0; j < h; ++j) {
    std::int32_t acc = 0;
    for (std::size_t k = 0; k < d; ++k) {
      acc += static_cast<std::int32_t>(x[k]) *
             static_cast<std::int32_t>(bt[k * h + j]);
    }
    out[j] = (static_cast<float>(acc) * x_scale) * col_scales[j];
  }
}

void Avx2GemvS8(const std::int8_t* x, const std::int8_t* bt, std::size_t d,
                std::size_t h, float x_scale, const float* col_scales,
                float* out) {
  const std::size_t d2 = d & ~static_cast<std::size_t>(1);
  std::size_t j = 0;
  for (; j + 16 <= h; j += 16) {
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    std::size_t k = 0;
    for (; k < d2; k += 2) {
      const S8PairTile t =
          LoadS8PairTile(bt + k * h + j, bt + (k + 1) * h + j);
      const __m256i xp = BroadcastS8Pair(x[k], x[k + 1]);
      acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(t.lo, xp));
      acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(t.hi, xp));
    }
    if (k < d) {
      // Odd-d tail: pair the last row with zeros (x1 = 0 contributes 0).
      const __m128i b0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bt + k * h + j));
      const __m128i zero = _mm_setzero_si128();
      const __m256i lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, zero));
      const __m256i hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, zero));
      const __m256i xp = BroadcastS8Pair(x[k], 0);
      acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(lo, xp));
      acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(hi, xp));
    }
    ScaleOut16(acc_lo, acc_hi, x_scale, col_scales + j, out + j);
  }
  if (j < h) Avx2GemvS8Tail(x, bt, d, h, j, x_scale, col_scales, out);
}

/// Rounds a pack-buffer pointer up to the next 64-byte boundary so no ymm
/// load in the GEMM hot loop splits a cache line; gemm_s8_pack_size budgets
/// 16 slack lanes for exactly this.
inline std::int32_t* Align64(std::int32_t* p) {
  return reinterpret_cast<std::int32_t*>(
      (reinterpret_cast<std::uintptr_t>(p) + 63) &
      ~static_cast<std::uintptr_t>(63));
}
inline const std::int32_t* Align64(const std::int32_t* p) {
  return Align64(const_cast<std::int32_t*>(p));
}

std::size_t Avx2GemmS8PackSize(std::size_t d, std::size_t h) {
  const std::size_t pairs = (d + 1) / 2;    // odd d: last row zero-paired
  const std::size_t tiles8 = (h / 16) * 2;  // 8-herb tiles (lo/hi splits)
  if (tiles8 == 0) return 0;  // too narrow to tile; GEMV reads bt raw
  return tiles8 * pairs * 8 + 16;  // +16 lanes of 64-byte alignment slack
}

/// Widens bt once into sequential s16 pair-tiles of 8 herbs each (the
/// lo/hi halves LoadS8PairTile would produce land as two adjacent tiles),
/// so the GEMM's unpack/extend work happens once per weight matrix instead
/// of once per call, and the inner loop streams the pack linearly instead
/// of striding rows.
void Avx2GemmS8Pack(const std::int8_t* bt, std::size_t d, std::size_t h,
                    std::int32_t* packed) {
  const std::size_t d2 = d & ~static_cast<std::size_t>(1);
  const std::size_t pairs = (d + 1) / 2;
  const std::size_t tiles8 = (h / 16) * 2;
  if (tiles8 == 0) return;
  std::int32_t* const bt_base = Align64(packed);
  const auto store_ymm = [](std::int32_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  for (std::size_t jt = 0; jt < tiles8 / 2; ++jt) {
    const std::size_t j = jt * 16;
    std::int32_t* lo_tile = bt_base + (2 * jt) * pairs * 8;
    std::int32_t* hi_tile = bt_base + (2 * jt + 1) * pairs * 8;
    std::size_t k = 0;
    for (; k < d2; k += 2) {
      const S8PairTile t = LoadS8PairTile(bt + k * h + j, bt + (k + 1) * h + j);
      store_ymm(lo_tile + (k / 2) * 8, t.lo);
      store_ymm(hi_tile + (k / 2) * 8, t.hi);
    }
    if (k < d) {
      const __m128i b0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bt + k * h + j));
      const __m128i zero = _mm_setzero_si128();
      store_ymm(lo_tile + (k / 2) * 8,
                _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, zero)));
      store_ymm(hi_tile + (k / 2) * 8,
                _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, zero)));
    }
  }
}

/// Register-blocked int8 GEMM core: 8 queries x 8 herbs (8 ymm i32
/// accumulators, one per query) per tile, consuming a pre-packed bt
/// (`bt_base`, 64-byte aligned, from Avx2GemmS8Pack):
///   * each 8-query group broadcasts its activation pairs once up front;
///     in the tile loop every broadcast ymm feeds exactly one madd, so the
///     compiler can fold its load into the madd memory operand;
///   * one herb tile (pairs x 32 B) stays L1-resident while eight madd
///     chains consume it, and the pack is streamed once per EIGHT queries
///     — half the bt traffic of a 4-query-wide blocking.
/// The madd/add operands and their per-accumulator order are unchanged
/// from Avx2GemvS8, and i32 accumulation is exact, so results stay
/// bit-identical to the per-row GEMV on every backend and batch size.
void Avx2GemmS8Core(const std::int8_t* a, const std::int8_t* bt,
                    const std::int32_t* bt_base, std::size_t b, std::size_t d,
                    std::size_t h, const float* a_scales,
                    const float* col_scales, float* out) {
  const std::size_t d2 = d & ~static_cast<std::size_t>(1);
  const std::size_t pairs = (d + 1) / 2;
  const std::size_t tiles8 = (h / 16) * 2;
  const std::size_t groups = b / 8;
  if (groups > 0 && tiles8 > 0) {
    // Per-thread activation pack persists across calls (one ymm per pair
    // per query, ALL query groups at once so the tile-chunk loop below can
    // revisit groups without re-broadcasting). Plain i32 storage sidesteps
    // vector<__m256i>'s allocator pitfalls; the extra 16 lanes absorb the
    // 64-byte base round-up.
    static thread_local std::vector<std::int32_t> packed_x;
    packed_x.resize(groups * 8 * pairs * 8 + 16);
    std::int32_t* const x_base = Align64(packed_x.data());
    const auto store_ymm = [](std::int32_t* p, __m256i v) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    };
    const auto load_ymm = [](const std::int32_t* p) {
      return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    };
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t q = 0; q < 8; ++q) {
        const std::int8_t* aq = a + (g * 8 + q) * d;
        std::int32_t* xq = x_base + (g * 8 + q) * pairs * 8;
        std::size_t k = 0;
        for (; k < d2; k += 2) {
          store_ymm(xq + (k / 2) * 8, BroadcastS8Pair(aq[k], aq[k + 1]));
        }
        if (k < d) store_ymm(xq + (k / 2) * 8, BroadcastS8Pair(aq[k], 0));
      }
    }
    // Tile chunking: at wide batches the inner loop would otherwise stream
    // the whole bt pack once per 8-query group (b/8 full sweeps), which at
    // serving scale is megabytes of L2 traffic per call right when the
    // batch's score/output buffers are fighting for the same cache. A
    // ~16 KB chunk of tiles stays L1-resident while EVERY query group
    // consumes it, so the pack is swept once per call and the hot loop's
    // tile loads hit L1. Per-output accumulation order is untouched (the
    // chunk split is over herbs, k still runs ascending and in full per
    // tile), so results remain bit-identical.
    const std::size_t tile_lanes = pairs * 8;
    std::size_t chunk_tiles = (16 * 1024) / (tile_lanes * 4);
    if (chunk_tiles == 0) chunk_tiles = 1;
    for (std::size_t t0 = 0; t0 < tiles8; t0 += chunk_tiles) {
      const std::size_t t1 = std::min(t0 + chunk_tiles, tiles8);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t i = g * 8;
        const std::int32_t* x0 = x_base + i * tile_lanes;
        const std::int32_t* x1 = x0 + tile_lanes;
        const std::int32_t* x2 = x1 + tile_lanes;
        const std::int32_t* x3 = x2 + tile_lanes;
        const std::int32_t* x4 = x3 + tile_lanes;
        const std::int32_t* x5 = x4 + tile_lanes;
        const std::int32_t* x6 = x5 + tile_lanes;
        const std::int32_t* x7 = x6 + tile_lanes;
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t j = t * 8;
          const std::int32_t* tile = bt_base + t * tile_lanes;
        __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256();
        __m256i c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256();
        __m256i c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256();
        __m256i c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
        // Two k-pairs per iteration: halves the loop overhead and gives the
        // register allocator enough slack to keep the eight accumulators
        // pinned. Each accumulator still sees its pairs in ascending order.
        std::size_t p = 0;
        for (; p + 2 <= pairs; p += 2) {
          const __m256i ta = load_ymm(tile + p * 8);
          const __m256i tb = load_ymm(tile + p * 8 + 8);
          c0 = _mm256_add_epi32(
              _mm256_add_epi32(c0, _mm256_madd_epi16(ta, load_ymm(x0 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x0 + p * 8 + 8)));
          c1 = _mm256_add_epi32(
              _mm256_add_epi32(c1, _mm256_madd_epi16(ta, load_ymm(x1 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x1 + p * 8 + 8)));
          c2 = _mm256_add_epi32(
              _mm256_add_epi32(c2, _mm256_madd_epi16(ta, load_ymm(x2 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x2 + p * 8 + 8)));
          c3 = _mm256_add_epi32(
              _mm256_add_epi32(c3, _mm256_madd_epi16(ta, load_ymm(x3 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x3 + p * 8 + 8)));
          c4 = _mm256_add_epi32(
              _mm256_add_epi32(c4, _mm256_madd_epi16(ta, load_ymm(x4 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x4 + p * 8 + 8)));
          c5 = _mm256_add_epi32(
              _mm256_add_epi32(c5, _mm256_madd_epi16(ta, load_ymm(x5 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x5 + p * 8 + 8)));
          c6 = _mm256_add_epi32(
              _mm256_add_epi32(c6, _mm256_madd_epi16(ta, load_ymm(x6 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x6 + p * 8 + 8)));
          c7 = _mm256_add_epi32(
              _mm256_add_epi32(c7, _mm256_madd_epi16(ta, load_ymm(x7 + p * 8))),
              _mm256_madd_epi16(tb, load_ymm(x7 + p * 8 + 8)));
        }
        for (; p < pairs; ++p) {
          const __m256i tl = load_ymm(tile + p * 8);
          c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(tl, load_ymm(x0 + p * 8)));
          c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(tl, load_ymm(x1 + p * 8)));
          c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(tl, load_ymm(x2 + p * 8)));
          c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(tl, load_ymm(x3 + p * 8)));
          c4 = _mm256_add_epi32(c4, _mm256_madd_epi16(tl, load_ymm(x4 + p * 8)));
          c5 = _mm256_add_epi32(c5, _mm256_madd_epi16(tl, load_ymm(x5 + p * 8)));
          c6 = _mm256_add_epi32(c6, _mm256_madd_epi16(tl, load_ymm(x6 + p * 8)));
          c7 = _mm256_add_epi32(c7, _mm256_madd_epi16(tl, load_ymm(x7 + p * 8)));
        }
          ScaleOut8(c0, a_scales[i + 0], col_scales + j, out + (i + 0) * h + j);
          ScaleOut8(c1, a_scales[i + 1], col_scales + j, out + (i + 1) * h + j);
          ScaleOut8(c2, a_scales[i + 2], col_scales + j, out + (i + 2) * h + j);
          ScaleOut8(c3, a_scales[i + 3], col_scales + j, out + (i + 3) * h + j);
          ScaleOut8(c4, a_scales[i + 4], col_scales + j, out + (i + 4) * h + j);
          ScaleOut8(c5, a_scales[i + 5], col_scales + j, out + (i + 5) * h + j);
          ScaleOut8(c6, a_scales[i + 6], col_scales + j, out + (i + 6) * h + j);
          ScaleOut8(c7, a_scales[i + 7], col_scales + j, out + (i + 7) * h + j);
        }
      }
    }
    if (tiles8 * 8 < h) {
      for (std::size_t r = 0; r < groups * 8; ++r) {
        Avx2GemvS8Tail(a + r * d, bt, d, h, tiles8 * 8, a_scales[r],
                       col_scales, out + r * h);
      }
    }
  }
  for (std::size_t r = groups * 8; r < b; ++r) {
    Avx2GemvS8(a + r * d, bt, d, h, a_scales[r], col_scales, out + r * h);
  }
}

/// gemm_s8 entry point: packs bt into per-thread scratch, then runs the
/// core. Callers with a long-lived bt should pre-pack via gemm_s8_pack and
/// call gemm_s8_packed instead — in a serving batch loop this per-call pack
/// is pure overhead, and worse, its write traffic re-dirties cache lines
/// that the surrounding pipeline (scores, widening) just evicted.
void Avx2GemmS8(const std::int8_t* a, const std::int8_t* bt, std::size_t b,
                std::size_t d, std::size_t h, const float* a_scales,
                const float* col_scales, float* out) {
  const std::size_t tiles8 = (h / 16) * 2;
  if (b >= 8 && tiles8 > 0) {
    static thread_local std::vector<std::int32_t> packed_bt;
    packed_bt.resize(Avx2GemmS8PackSize(d, h));
    Avx2GemmS8Pack(bt, d, h, packed_bt.data());
    Avx2GemmS8Core(a, bt, Align64(packed_bt.data()), b, d, h, a_scales,
                   col_scales, out);
    return;
  }
  for (std::size_t i = 0; i < b; ++i) {
    Avx2GemvS8(a + i * d, bt, d, h, a_scales[i], col_scales, out + i * h);
  }
}

void Avx2GemmS8Packed(const std::int8_t* a, const std::int8_t* bt,
                      const std::int32_t* packed, std::size_t b, std::size_t d,
                      std::size_t h, const float* a_scales,
                      const float* col_scales, float* out) {
  const std::size_t tiles8 = (h / 16) * 2;
  if (packed == nullptr || b < 8 || tiles8 == 0) {
    // No pack supplied (or a shape the core would not touch it for): the
    // internal-packing path is bit-identical, just slower per call.
    Avx2GemmS8(a, bt, b, d, h, a_scales, col_scales, out);
    return;
  }
  Avx2GemmS8Core(a, bt, Align64(packed), b, d, h, a_scales, col_scales, out);
}

// ---------------------------------------------------------------------------
// top-k scans
// ---------------------------------------------------------------------------

/// Lane maxima: each register-wide lane group (8 lanes f32, 4 lanes f64)
/// strides the row by `lanes`, spreading its blocks over four max chains so
/// the strided loads overlap instead of waiting on one chain. max(x, acc)
/// returns acc when x is NaN; the chains merge by value (a zero maximum may
/// come out as either sign, which no >= test can see). A group's last,
/// partial register (at most one) finishes in scalar code.
inline __m256 Load(const float* p) { return _mm256_loadu_ps(p); }
inline __m256d Load(const double* p) { return _mm256_loadu_pd(p); }
inline __m256 Max(__m256 a, __m256 b) { return _mm256_max_ps(a, b); }
inline __m256d Max(__m256d a, __m256d b) { return _mm256_max_pd(a, b); }
inline void Store(float* p, __m256 v) { _mm256_storeu_ps(p, v); }
inline void Store(double* p, __m256d v) { _mm256_storeu_pd(p, v); }
inline __m256 Set1(float v) { return _mm256_set1_ps(v); }
inline __m256d Set1(double v) { return _mm256_set1_pd(v); }

template <typename T>
void Avx2LaneMax(const T* x, std::size_t n, std::size_t lanes, T* maxima) {
  using Vec = decltype(Set1(T{}));
  constexpr std::size_t kWidth = sizeof(Vec) / sizeof(T);
  const Vec neg_inf = Set1(-std::numeric_limits<T>::infinity());
  for (std::size_t v = 0; v < lanes; v += kWidth) {
    Vec acc0 = neg_inf, acc1 = neg_inf, acc2 = neg_inf, acc3 = neg_inf;
    std::size_t i = v;
    for (; i + 3 * lanes + kWidth <= n; i += 4 * lanes) {
      acc0 = Max(Load(x + i), acc0);
      acc1 = Max(Load(x + i + lanes), acc1);
      acc2 = Max(Load(x + i + 2 * lanes), acc2);
      acc3 = Max(Load(x + i + 3 * lanes), acc3);
    }
    for (; i + kWidth <= n; i += lanes) acc0 = Max(Load(x + i), acc0);
    Store(maxima + v, Max(Max(acc0, acc1), Max(acc2, acc3)));
    for (std::size_t t = 0; i + t < n && t < kWidth; ++t) {
      maxima[v + t] = x[i + t] > maxima[v + t] ? x[i + t] : maxima[v + t];
    }
  }
}


/// Left-pack table for the filter: entry m lists the set bits of the 8-bit
/// compare mask m in ascending order as eight i32 lane numbers (unused
/// lanes 0) ready for vpermd, and how many bits are set.
struct PackTable {
  alignas(32) std::int32_t perm[256][8];
  std::uint8_t count[256];
};

constexpr PackTable MakePackTable() {
  PackTable t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned c = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
      if ((m >> bit) & 1u) t.perm[m][c++] = static_cast<std::int32_t>(bit);
    }
    t.count[m] = static_cast<std::uint8_t>(c);
  }
  return t;
}

constexpr PackTable kPackTable = MakePackTable();

/// Stores the indices base + (set bits of `mask`) at out, ascending, as
/// eight unconditional lanes; returns how many are real.
inline std::size_t PackIndices(unsigned mask, __m256i base,
                               std::uint32_t* out) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPackTable.perm[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(base, perm));
  return kPackTable.count[mask];
}

std::size_t Avx2SelectGeF32(const float* x, std::size_t n, float floor,
                            std::uint32_t* idx) {
  const __m256 f = _mm256_set1_ps(floor);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i base = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), f, _CMP_GE_OQ)));
    count += PackIndices(mask, base, idx + count);
    base = _mm256_add_epi32(base, step);
  }
  for (; i < n; ++i) {
    idx[count] = static_cast<std::uint32_t>(i);
    count += x[i] >= floor;
  }
  return count;
}

std::size_t Avx2SelectGeF64(const double* x, std::size_t n, double floor,
                            std::uint32_t* idx) {
  const __m256d f = _mm256_set1_pd(floor);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i base = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const unsigned lo = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), f, _CMP_GE_OQ)));
    const unsigned hi = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + i + 4), f, _CMP_GE_OQ)));
    count += PackIndices(lo | (hi << 4), base, idx + count);
    base = _mm256_add_epi32(base, step);
  }
  for (; i < n; ++i) {
    idx[count] = static_cast<std::uint32_t>(i);
    count += x[i] >= floor;
  }
  return count;
}

}  // namespace

const Backend* Avx2Backend() {
  static const Backend backend = {
      "avx2",
      &Avx2DotF32,
      &Avx2GemvF32,
      &Avx2GemmF32,
      &Avx2GemmF64,
      &Avx2DotS8,
      &Avx2GemvS8,
      &Avx2GemmS8,
      &Avx2GemmS8PackSize,
      &Avx2GemmS8Pack,
      &Avx2GemmS8Packed,
      &Avx2LaneMax<float>,
      &Avx2LaneMax<double>,
      &Avx2SelectGeF32,
      &Avx2SelectGeF64,
  };
  return &backend;
}

}  // namespace kernels
}  // namespace tensor
}  // namespace smgcn

#else  // !defined(SMGCN_KERNELS_AVX2)

namespace smgcn {
namespace tensor {
namespace kernels {

// This build carries no AVX2 TU (non-x86 target or a compiler without
// -mavx2); dispatch falls through to the scalar backend.
const Backend* Avx2Backend() { return nullptr; }

}  // namespace kernels
}  // namespace tensor
}  // namespace smgcn

#endif  // SMGCN_KERNELS_AVX2
