#include "src/tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/util/logging.h"

namespace smgcn {
namespace tensor {

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFloat32:
      return "f32";
    case Precision::kInt8:
      return "int8";
    case Precision::kFloat64:
      break;
  }
  return "f64";
}

namespace kernels {

namespace {

float ScalarDotF32(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < n; ++k) acc += a[k] * b[k];
  return acc;
}

void ScalarGemvF32(const float* x, const float* bt, std::size_t d,
                   std::size_t h, float* out) {
  for (std::size_t j = 0; j < h; ++j) out[j] = 0.0f;
  // Stream bt row by row (herb-contiguous) with independent accumulators
  // per herb; each out[j] still sums its d terms in ascending-k order.
  for (std::size_t k = 0; k < d; ++k) {
    const float xk = x[k];
    const float* bt_row = bt + k * h;
    for (std::size_t j = 0; j < h; ++j) out[j] += xk * bt_row[j];
  }
}

void ScalarGemmF32(const float* a, const float* bt, std::size_t b,
                   std::size_t d, std::size_t h, float* out) {
  // Same query-blocked shape as the f64 reference GEMM: a small query block
  // reuses each streamed bt row while the block's output rows stay
  // cache-resident.
  constexpr std::size_t kQueryBlock = 4;
  std::memset(out, 0, b * h * sizeof(float));
  for (std::size_t i0 = 0; i0 < b; i0 += kQueryBlock) {
    const std::size_t i1 = i0 + kQueryBlock < b ? i0 + kQueryBlock : b;
    for (std::size_t k = 0; k < d; ++k) {
      const float* bt_row = bt + k * h;
      for (std::size_t i = i0; i < i1; ++i) {
        const float aik = a[i * d + k];
        float* out_row = out + i * h;
        for (std::size_t j = 0; j < h; ++j) out_row[j] += aik * bt_row[j];
      }
    }
  }
}

void ScalarGemmF64(const double* a, const double* bt, std::size_t b,
                   std::size_t d, std::size_t h, double* out) {
  // The f32 GEMM's query-blocked shape: each streamed bt row is reused by a
  // block of queries while their output rows stay cache-resident, and every
  // out[i, j] still sums its d terms in ascending-k order from 0.0.
  constexpr std::size_t kQueryBlock = 4;
  std::fill(out, out + b * h, 0.0);
  for (std::size_t i0 = 0; i0 < b; i0 += kQueryBlock) {
    const std::size_t i1 = std::min(i0 + kQueryBlock, b);
    for (std::size_t k = 0; k < d; ++k) {
      const double* bt_row = bt + k * h;
      for (std::size_t i = i0; i < i1; ++i) {
        const double aik = a[i * d + k];
        double* out_row = out + i * h;
        for (std::size_t j = 0; j < h; ++j) out_row[j] += aik * bt_row[j];
      }
    }
  }
}

template <typename T>
void ScalarLaneMax(const T* x, std::size_t n, std::size_t lanes, T* maxima) {
  std::fill(maxima, maxima + lanes, -std::numeric_limits<T>::infinity());
  for (std::size_t base = 0; base < n; base += lanes) {
    const T* row = x + base;
    const std::size_t len = std::min(lanes, n - base);
    for (std::size_t l = 0; l < len; ++l) {
      maxima[l] = row[l] > maxima[l] ? row[l] : maxima[l];
    }
  }
}

template <typename T>
std::size_t ScalarSelectGe(const T* x, std::size_t n, T floor,
                           std::uint32_t* idx) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx[count] = static_cast<std::uint32_t>(i);
    count += x[i] >= floor;
  }
  return count;
}

std::int32_t ScalarDotS8(const std::int8_t* a, const std::int8_t* b,
                         std::size_t n) {
  std::int32_t acc = 0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += static_cast<std::int32_t>(a[k]) * static_cast<std::int32_t>(b[k]);
  }
  return acc;
}

void ScalarGemvS8(const std::int8_t* x, const std::int8_t* bt, std::size_t d,
                  std::size_t h, float x_scale, const float* col_scales,
                  float* out) {
  // i32 accumulators streamed over bt rows; integer addition is associative,
  // so the streaming order is irrelevant to the result — the accumulation is
  // exact, and only the fixed-order f32 scale application rounds.
  constexpr std::size_t kTile = 256;
  std::int32_t acc[kTile];
  for (std::size_t j0 = 0; j0 < h; j0 += kTile) {
    const std::size_t width = h - j0 < kTile ? h - j0 : kTile;
    for (std::size_t j = 0; j < width; ++j) acc[j] = 0;
    for (std::size_t k = 0; k < d; ++k) {
      const std::int32_t xk = x[k];
      const std::int8_t* bt_row = bt + k * h + j0;
      for (std::size_t j = 0; j < width; ++j) {
        acc[j] += xk * static_cast<std::int32_t>(bt_row[j]);
      }
    }
    for (std::size_t j = 0; j < width; ++j) {
      out[j0 + j] =
          (static_cast<float>(acc[j]) * x_scale) * col_scales[j0 + j];
    }
  }
}

void ScalarGemmS8(const std::int8_t* a, const std::int8_t* bt, std::size_t b,
                  std::size_t d, std::size_t h, const float* a_scales,
                  const float* col_scales, float* out) {
  // Per-row GEMV: exact i32 accumulation makes any blocking bit-identical,
  // so the simplest shape is also the canonical one.
  for (std::size_t i = 0; i < b; ++i) {
    ScalarGemvS8(a + i * d, bt, d, h, a_scales[i], col_scales, out + i * h);
  }
}

// The scalar backend has no packed bt form: its per-row GEMV streams bt
// directly, so gemm_s8_packed ignores `packed` and forwards to gemm_s8.
std::size_t ScalarGemmS8PackSize(std::size_t /*d*/, std::size_t /*h*/) {
  return 0;
}

void ScalarGemmS8Pack(const std::int8_t* /*bt*/, std::size_t /*d*/,
                      std::size_t /*h*/, std::int32_t* /*packed*/) {}

void ScalarGemmS8Packed(const std::int8_t* a, const std::int8_t* bt,
                        const std::int32_t* /*packed*/, std::size_t b,
                        std::size_t d, std::size_t h, const float* a_scales,
                        const float* col_scales, float* out) {
  ScalarGemmS8(a, bt, b, d, h, a_scales, col_scales, out);
}

constexpr Backend kScalarBackend = {
    "scalar",
    &ScalarDotF32,
    &ScalarGemvF32,
    &ScalarGemmF32,
    &ScalarGemmF64,
    &ScalarDotS8,
    &ScalarGemvS8,
    &ScalarGemmS8,
    &ScalarGemmS8PackSize,
    &ScalarGemmS8Pack,
    &ScalarGemmS8Packed,
    &ScalarLaneMax<float>,
    &ScalarLaneMax<double>,
    &ScalarSelectGe<float>,
    &ScalarSelectGe<double>,
};

std::atomic<bool> g_force_scalar{false};

/// CPUID probe + environment override, run exactly once.
const Backend* DetectSimdBackend() {
  const char* env = std::getenv("SMGCN_FORCE_SCALAR_KERNELS");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    g_force_scalar.store(true, std::memory_order_relaxed);
  }
  const Backend* avx2 = Avx2Backend();
  if (avx2 == nullptr) return nullptr;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return avx2;
  }
  return nullptr;
#else
  return nullptr;
#endif
}

const Backend* SimdBackend() {
  static const Backend* backend = DetectSimdBackend();
  return backend;
}

/// Logs "kernel backend selected: <name> (<reason>)" when the effective
/// backend differs from the last one logged — once per process in steady
/// state, once more per effective ForceScalar() flip. The compare-exchange
/// keeps concurrent first callers down to a single line.
std::atomic<const Backend*> g_logged_backend{nullptr};

void LogSelectionIfChanged(const Backend* chosen, bool simd_compiled_in,
                           bool forced) {
  const Backend* last = g_logged_backend.load(std::memory_order_relaxed);
  if (last == chosen) return;
  if (!g_logged_backend.compare_exchange_strong(last, chosen,
                                                std::memory_order_relaxed)) {
    return;  // another thread logged this resolution first
  }
  const char* reason = forced ? "scalar forced"
                      : simd_compiled_in
                          ? "cpuid dispatch"
                          : "no SIMD backend compiled in or CPU lacks AVX2";
  LOG_INFO << "kernel backend selected: " << chosen->name << " (" << reason
           << ")";
}

}  // namespace

const Backend& ScalarBackend() { return kScalarBackend; }

const Backend& Active() {
  const Backend* simd = SimdBackend();  // also applies the env override
  const bool forced = g_force_scalar.load(std::memory_order_relaxed);
  const Backend* chosen =
      (simd == nullptr || forced) ? &kScalarBackend : simd;
  LogSelectionIfChanged(chosen, simd != nullptr, forced);
  return *chosen;
}

const char* ActiveName() { return Active().name; }

bool SimdAvailable() { return SimdBackend() != nullptr; }

void ForceScalar(bool force) {
  SimdBackend();  // settle the env override before explicit control
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool ScalarForced() {
  SimdBackend();
  return g_force_scalar.load(std::memory_order_relaxed);
}

}  // namespace kernels
}  // namespace tensor
}  // namespace smgcn
