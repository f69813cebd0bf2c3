// Runtime-dispatched scoring micro-kernels (f64, f32 + int8) and top-k scans.
//
// The serving hot loop (SMGCN eq. 13: fused symptom-set embedding dotted
// against every herb embedding) is a GEMV/GEMM over the transposed-herb
// layout (d x H, herb-contiguous rows per embedding dim). This header holds
// every precision's kernel for it:
//
//   * `Backend` is a table of f32 micro-kernels (dot, GEMV, batched GEMM),
//     int8 micro-kernels (s8 activations x s8 weights, exact i32
//     accumulation, f32 per-row/per-column scale application on the way
//     out) and the f64 reference GEMM over that layout, plus the two row
//     scans behind eval::TopK (lane maxima and a compare + left-pack
//     filter).
//   * `Active()` picks the widest implementation the *running* CPU supports,
//     decided once at startup: AVX2+FMA when the CPUID bits are set (the
//     AVX2 kernels live in kernels_avx2.cc, compiled with -mavx2 -mfma in
//     their own TU so the rest of the build never emits AVX2 on its own),
//     otherwise the portable scalar fallback.
//   * `ForceScalar(true)` — or the environment variable
//     SMGCN_FORCE_SCALAR_KERNELS=1, read once before the first dispatch —
//     pins the scalar fallback regardless of CPUID; CI runs the whole test
//     suite both ways so both codepaths stay green.
//
// Accuracy contract: every f32 kernel accumulates each output element's d
// terms in ascending-k order starting from 0 (the same per-element
// summation order as the double reference), so batched rows equal
// single-row runs exactly within a backend, and f32 results differ from
// the f64 reference only by float rounding — bounded by the
// top-k-agreement / NDCG-delta parity tests in tests/kernels_test.cc. The
// AVX2 f32 kernels use FMA, so they are not bit-identical to the scalar
// f32 fallback (fewer roundings, i.e. slightly *more* accurate); the
// parity bounds hold for both.
//
// The f64 GEMM is the bit-exact reference on every backend: each output
// starts at 0.0 and adds a[i,k] * bt[k,j] for k ascending, the product
// rounded before the add (no FMA), exactly the per-element sum of
// Matrix::MatMulTransposed. Vector lanes are independent outputs, so the
// AVX2 GEMM equals the scalar one bit for bit (NaN payloads aside: x86
// keeps one operand's NaN, and the compiler may commute an add).
//
// The top-k scans are exact on every backend: lane maxima and >= tests
// involve no rounding, so their results match the scalar scans exactly.
//
// The int8 kernels have a stronger contract: the i32 accumulation is
// EXACT (integer addition is associative, and the worst-case magnitude
// d * 127 * 127 stays far below 2^31 for any d this system serves), and
// the f32 scale application multiplies in one fixed order
// ((float)acc * x_scale) * col_scale. Int8 results are therefore
// bit-identical across backends AND across GEMV/GEMM — not merely within
// one backend.
#ifndef SMGCN_TENSOR_KERNELS_H_
#define SMGCN_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace smgcn {
namespace tensor {

/// Element precision of a scoring path or artifact payload. Conversions
/// f64 -> f32 round to nearest even (the IEEE-754 default for
/// static_cast<float>); f32 -> f64 is exact. kInt8 is per-row symmetric
/// quantization (tensor/quantize.h): signed 8-bit values in [-127, 127]
/// plus one f32 scale per matrix row.
enum class Precision {
  kFloat64,
  kFloat32,
  kInt8,
};

/// Human-readable precision name ("f64" / "f32" / "int8").
const char* PrecisionName(Precision precision);

namespace kernels {

/// One kernel implementation set (f64, f32, int8 and the top-k scans). All
/// pointers are non-null.
struct Backend {
  /// Implementation name for logs/benches: "scalar" or "avx2".
  const char* name;

  /// Plain dot product: sum_k a[k] * b[k].
  float (*dot_f32)(const float* a, const float* b, std::size_t n);

  /// GEMV over the transposed-herb layout:
  ///   out[j] = sum_k x[k] * bt[k * h + j]        for j in [0, h)
  /// `x` is one pooled query (d floats), `bt` is d x h row-major.
  void (*gemv_f32)(const float* x, const float* bt, std::size_t d,
                   std::size_t h, float* out);

  /// Batched GEMM over the same layout:
  ///   out[i * h + j] = sum_k a[i * d + k] * bt[k * h + j]
  /// `a` is b x d row-major (pooled queries), `out` is b x h row-major.
  void (*gemm_f32)(const float* a, const float* bt, std::size_t b,
                   std::size_t d, std::size_t h, float* out);

  /// Reference-order f64 GEMM over the same layout:
  ///   out[i * h + j] = (...((0.0 + a[i*d] * bt[j]) + a[i*d+1] * bt[h+j])...)
  /// k ascending, each product rounded before its add. Every element of
  /// `out` is written; its prior contents are ignored.
  void (*gemm_f64)(const double* a, const double* bt, std::size_t b,
                   std::size_t d, std::size_t h, double* out);

  /// Exact signed-8-bit dot product with i32 accumulation:
  ///   sum_k (i32)a[k] * (i32)b[k]
  /// Never overflows for n <= 2^31 / 127^2 (~133k), far above any
  /// embedding width this system serves.
  std::int32_t (*dot_s8)(const std::int8_t* a, const std::int8_t* b,
                         std::size_t n);

  /// Quantized GEMV over the transposed-herb layout:
  ///   acc    = sum_k (i32)x[k] * (i32)bt[k * h + j]
  ///   out[j] = ((float)acc * x_scale) * col_scales[j]
  /// `x` is one quantized activation row (scale x_scale), column j of `bt`
  /// is herb j's quantized embedding (scale col_scales[j]). The i32
  /// accumulation is exact and the scale application order is fixed, so
  /// results are bit-identical across backends.
  void (*gemv_s8)(const std::int8_t* x, const std::int8_t* bt, std::size_t d,
                  std::size_t h, float x_scale, const float* col_scales,
                  float* out);

  /// Quantized batched GEMM over the same layout; row i uses a_scales[i]:
  ///   out[i * h + j] = ((float)acc_ij * a_scales[i]) * col_scales[j]
  /// Every output row is bit-identical to gemv_s8 on that row (and to the
  /// other backend — integer accumulation has no rounding to diverge on).
  void (*gemm_s8)(const std::int8_t* a, const std::int8_t* bt, std::size_t b,
                  std::size_t d, std::size_t h, const float* a_scales,
                  const float* col_scales, float* out);

  /// Size in i32 lanes (alignment slack included) of this backend's
  /// pre-packed form of a d x h `bt` for gemm_s8_packed, or 0 when the
  /// backend has no packed form (scalar, or shapes too small to tile).
  /// Pre-packing hoists gemm_s8's per-call widening of bt out of the hot
  /// path: a long-lived weight matrix (the serving herb table) is packed
  /// once at build time instead of on every batch.
  std::size_t (*gemm_s8_pack_size)(std::size_t d, std::size_t h);

  /// Writes this backend's packed form of `bt` into `packed`, which must
  /// hold gemm_s8_pack_size(d, h) lanes. No-op when that size is 0. The
  /// packed bytes are backend-private: only the same backend's
  /// gemm_s8_packed may consume them.
  void (*gemm_s8_pack)(const std::int8_t* bt, std::size_t d, std::size_t h,
                       std::int32_t* packed);

  /// gemm_s8 with the bt packing hoisted out: `packed` must come from this
  /// backend's gemm_s8_pack over the same bt/d/h, or be nullptr to pack
  /// internally (then exactly gemm_s8). Raw `bt` is still required — ragged
  /// edges and small batches read it directly. Bit-identical to gemm_s8 for
  /// any packed/null combination.
  void (*gemm_s8_packed)(const std::int8_t* a, const std::int8_t* bt,
                         const std::int32_t* packed, std::size_t b,
                         std::size_t d, std::size_t h, const float* a_scales,
                         const float* col_scales, float* out);

  /// Top-k floor pass: maxima[l] = the largest x[i] over i with
  /// i % lanes == l, for l in [0, lanes). NaN never raises a maximum; a lane
  /// with no number reads -inf. `lanes` is a positive multiple of 8.
  void (*lane_max_f32)(const float* x, std::size_t n, std::size_t lanes,
                       float* maxima);
  void (*lane_max_f64)(const double* x, std::size_t n, std::size_t lanes,
                       double* maxima);

  /// Top-k filter pass: writes every i in [0, n) with x[i] >= floor (so
  /// never a NaN) to idx, ascending, and returns how many. `idx` holds
  /// n + 8 entries: entries past the returned count may be overwritten.
  std::size_t (*select_ge_f32)(const float* x, std::size_t n, float floor,
                               std::uint32_t* idx);
  std::size_t (*select_ge_f64)(const double* x, std::size_t n, double floor,
                               std::uint32_t* idx);
};

/// The portable fallback; always available, never uses SIMD intrinsics.
const Backend& ScalarBackend();

/// The AVX2+FMA implementation, or nullptr when this build has no AVX2 TU
/// (non-x86 target or a compiler without -mavx2). Availability of the TU
/// does not imply the running CPU supports it — use Active().
const Backend* Avx2Backend();

/// The backend scoring should use: the widest implementation compiled in
/// AND supported by the running CPU, unless scalar is forced. The CPUID
/// probe runs once; Active() afterwards is a load. For auditability the
/// resolved choice is logged exactly once per process as a
/// "kernel backend selected: <name> (<reason>)" INFO line — and once more
/// per effective change if ForceScalar() later flips the resolution (tests
/// and the forced-scalar CI leg), never per call.
const Backend& Active();

/// Name of Active()'s backend ("scalar" / "avx2").
const char* ActiveName();

/// True when an SIMD backend is compiled in and the CPU supports it
/// (regardless of ForceScalar).
bool SimdAvailable();

/// Pins (or releases) the scalar fallback. Takes effect for subsequent
/// Active() calls; intended for tests and the forced-scalar CI leg, not for
/// flipping mid-query. Also settable via SMGCN_FORCE_SCALAR_KERNELS=1 in
/// the environment (read once, before the first dispatch).
void ForceScalar(bool force);

/// True when the scalar fallback is currently pinned.
bool ScalarForced();

}  // namespace kernels
}  // namespace tensor
}  // namespace smgcn

#endif  // SMGCN_TENSOR_KERNELS_H_
