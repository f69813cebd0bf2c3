// Tests for src/tensor/kernels: scalar/AVX2 f32 and int8 micro-kernel
// correctness, runtime dispatch control (including the audit log line),
// and the reduced-precision-vs-f64 serving parity properties (top-k
// agreement and NDCG delta) the f32 and int8 scoring paths ship under.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/eval/metrics.h"
#include "src/serve/embedding_store.h"
#include "src/serve/engine.h"
#include "src/serve/query.h"
#include "src/tensor/kernels.h"
#include "src/tensor/matrix.h"
#include "src/tensor/quantize.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/random.h"

namespace smgcn {
namespace tensor {
namespace kernels {
namespace {

/// RAII scalar-kernel override so a failing assertion can't leave the
/// process pinned to the wrong backend for later tests.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) : previous_(ScalarForced()) {
    ForceScalar(force);
  }
  ~ScopedForceScalar() { ForceScalar(previous_); }

 private:
  bool previous_;
};

std::vector<float> RandomVec(std::size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

/// Double-accumulated reference for one output element: the ground truth
/// every f32 kernel is checked against (within float tolerance).
double RefDot(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += static_cast<double>(a[k]) * static_cast<double>(b[k]);
  }
  return acc;
}

void ExpectGemmMatchesReference(const Backend& backend, std::size_t b,
                                std::size_t d, std::size_t h, Rng* rng) {
  const std::vector<float> a = RandomVec(b * d, rng);
  const std::vector<float> bt = RandomVec(d * h, rng);
  std::vector<float> out(b * h, -1.0f);
  backend.gemm_f32(a.data(), bt.data(), b, d, h, out.data());
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      std::vector<float> col(d);
      for (std::size_t k = 0; k < d; ++k) col[k] = bt[k * h + j];
      const double ref = RefDot(a.data() + i * d, col.data(), d);
      const double tol = 1e-5 * (1.0 + std::abs(ref)) * std::sqrt(double(d));
      EXPECT_NEAR(out[i * h + j], ref, tol)
          << backend.name << " b=" << b << " d=" << d << " h=" << h << " ("
          << i << "," << j << ")";
    }
  }
}

TEST(KernelsTest, ScalarDotMatchesReference) {
  Rng rng(11);
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u, 257u}) {
    const std::vector<float> a = RandomVec(n, &rng);
    const std::vector<float> b = RandomVec(n, &rng);
    const double ref = RefDot(a.data(), b.data(), n);
    EXPECT_NEAR(ScalarBackend().dot_f32(a.data(), b.data(), n), ref,
                1e-5 * (1.0 + std::abs(ref)))
        << "n=" << n;
  }
}

TEST(KernelsTest, ScalarGemvBitMatchesPerColumnScalarLoop) {
  // The scalar GEMV streams bt row by row but still accumulates each
  // out[j] in ascending-k order — bit-identical to the naive column loop.
  Rng rng(12);
  const std::size_t d = 16, h = 41;
  const std::vector<float> x = RandomVec(d, &rng);
  const std::vector<float> bt = RandomVec(d * h, &rng);
  std::vector<float> out(h);
  ScalarBackend().gemv_f32(x.data(), bt.data(), d, h, out.data());
  for (std::size_t j = 0; j < h; ++j) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < d; ++k) acc += x[k] * bt[k * h + j];
    EXPECT_EQ(out[j], acc) << "j=" << j;
  }
}

TEST(KernelsTest, GemmMatchesReferenceOnRaggedShapes) {
  // Cover every tile/tail combination of both backends: query block (4) and
  // herb tiles (32/16/8) plus their scalar remainders.
  Rng rng(13);
  std::vector<const Backend*> backends = {&ScalarBackend()};
  if (SimdAvailable()) backends.push_back(Avx2Backend());
  for (const Backend* backend : backends) {
    for (std::size_t b : {1u, 3u, 4u, 5u, 9u}) {
      for (std::size_t d : {1u, 8u, 33u}) {
        for (std::size_t h : {1u, 7u, 16u, 31u, 40u, 100u}) {
          ExpectGemmMatchesReference(*backend, b, d, h, &rng);
        }
      }
    }
  }
}

TEST(KernelsTest, GemmRowsBitIdenticalToGemv) {
  // The row-independence contract: every row of a batched GEMM equals the
  // single-query GEMV bit for bit, within one backend. This is what lets
  // the engine mix batched and per-query paths freely.
  Rng rng(14);
  std::vector<const Backend*> backends = {&ScalarBackend()};
  if (SimdAvailable()) backends.push_back(Avx2Backend());
  for (const Backend* backend : backends) {
    for (std::size_t b : {1u, 4u, 6u}) {
      for (std::size_t d : {8u, 24u}) {
        for (std::size_t h : {8u, 40u, 44u, 753u}) {
          const std::vector<float> a = RandomVec(b * d, &rng);
          const std::vector<float> bt = RandomVec(d * h, &rng);
          std::vector<float> batched(b * h);
          backend->gemm_f32(a.data(), bt.data(), b, d, h, batched.data());
          std::vector<float> single(h);
          for (std::size_t i = 0; i < b; ++i) {
            backend->gemv_f32(a.data() + i * d, bt.data(), d, h, single.data());
            for (std::size_t j = 0; j < h; ++j) {
              EXPECT_EQ(batched[i * h + j], single[j])
                  << backend->name << " row " << i << " j=" << j << " b=" << b
                  << " d=" << d << " h=" << h;
            }
          }
        }
      }
    }
  }
}

std::vector<std::int8_t> RandomS8(std::size_t n, Rng* rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(rng->UniformInt(-127, 127));
  }
  return v;
}

std::vector<float> RandomScales(std::size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& s : v) s = static_cast<float>(rng->Uniform(0.001, 0.05));
  return v;
}

/// i64-accumulated reference: overflow-proof ground truth the exact i32
/// kernels must match bit for bit.
std::int64_t RefDotS8(const std::int8_t* a, const std::int8_t* b,
                      std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += static_cast<std::int64_t>(a[k]) * static_cast<std::int64_t>(b[k]);
  }
  return acc;
}

TEST(KernelsInt8Test, DotMatchesWideReferenceExactly) {
  Rng rng(21);
  std::vector<const Backend*> backends = {&ScalarBackend()};
  if (SimdAvailable()) backends.push_back(Avx2Backend());
  for (const Backend* backend : backends) {
    for (std::size_t n : {1u, 7u, 16u, 17u, 64u, 257u}) {
      const std::vector<std::int8_t> a = RandomS8(n, &rng);
      const std::vector<std::int8_t> b = RandomS8(n, &rng);
      EXPECT_EQ(static_cast<std::int64_t>(backend->dot_s8(a.data(), b.data(), n)),
                RefDotS8(a.data(), b.data(), n))
          << backend->name << " n=" << n;
    }
  }
}

TEST(KernelsInt8Test, GemvBitMatchesReferenceOnRaggedShapes) {
  // The int8 contract is stronger than f32's: exact i32 accumulation plus a
  // fixed scale order means EVERY backend must reproduce the reference
  // float bit for bit, tails and tiles alike.
  Rng rng(22);
  std::vector<const Backend*> backends = {&ScalarBackend()};
  if (SimdAvailable()) backends.push_back(Avx2Backend());
  for (const Backend* backend : backends) {
    for (std::size_t d : {1u, 2u, 7u, 8u, 33u, 64u}) {
      for (std::size_t h : {1u, 7u, 15u, 16u, 31u, 40u, 100u}) {
        const std::vector<std::int8_t> x = RandomS8(d, &rng);
        const std::vector<std::int8_t> bt = RandomS8(d * h, &rng);
        const float x_scale = static_cast<float>(rng.Uniform(0.001, 0.05));
        const std::vector<float> col_scales = RandomScales(h, &rng);
        std::vector<float> out(h, -1.0f);
        backend->gemv_s8(x.data(), bt.data(), d, h, x_scale, col_scales.data(),
                         out.data());
        for (std::size_t j = 0; j < h; ++j) {
          std::int32_t acc = 0;
          for (std::size_t k = 0; k < d; ++k) {
            acc += static_cast<std::int32_t>(x[k]) *
                   static_cast<std::int32_t>(bt[k * h + j]);
          }
          const float expected =
              (static_cast<float>(acc) * x_scale) * col_scales[j];
          EXPECT_EQ(out[j], expected)
              << backend->name << " d=" << d << " h=" << h << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelsInt8Test, GemmRowsBitIdenticalToGemvAndAcrossBackends) {
  // Within one backend every batched row must equal the single-query GEMV
  // bit for bit — and, unlike f32, the scalar and AVX2 backends must also
  // agree exactly with each other (integer accumulation has no rounding to
  // diverge on).
  Rng rng(23);
  for (std::size_t b : {1u, 3u, 4u, 5u, 9u}) {
    for (std::size_t d : {1u, 8u, 33u}) {
      for (std::size_t h : {1u, 16u, 44u, 100u, 753u}) {
        const std::vector<std::int8_t> a = RandomS8(b * d, &rng);
        const std::vector<std::int8_t> bt = RandomS8(d * h, &rng);
        const std::vector<float> a_scales = RandomScales(b, &rng);
        const std::vector<float> col_scales = RandomScales(h, &rng);
        std::vector<const Backend*> backends = {&ScalarBackend()};
        if (SimdAvailable()) backends.push_back(Avx2Backend());
        std::vector<std::vector<float>> per_backend;
        for (const Backend* backend : backends) {
          std::vector<float> batched(b * h, -1.0f);
          backend->gemm_s8(a.data(), bt.data(), b, d, h, a_scales.data(),
                           col_scales.data(), batched.data());
          std::vector<float> single(h);
          for (std::size_t i = 0; i < b; ++i) {
            backend->gemv_s8(a.data() + i * d, bt.data(), d, h, a_scales[i],
                             col_scales.data(), single.data());
            for (std::size_t j = 0; j < h; ++j) {
              ASSERT_EQ(batched[i * h + j], single[j])
                  << backend->name << " row " << i << " j=" << j << " b=" << b
                  << " d=" << d << " h=" << h;
            }
          }
          per_backend.push_back(std::move(batched));
        }
        if (per_backend.size() == 2) {
          for (std::size_t e = 0; e < per_backend[0].size(); ++e) {
            ASSERT_EQ(per_backend[0][e], per_backend[1][e])
                << "scalar vs avx2 diverged at flat index " << e << " b=" << b
                << " d=" << d << " h=" << h;
          }
        }
      }
    }
  }
}

TEST(KernelsInt8Test, PrepackedGemmBitIdenticalToUnpacked) {
  // gemm_s8_packed over a gemm_s8_pack'd bt must reproduce gemm_s8 bit for
  // bit on every backend — including shapes where the pack is empty (the
  // backend reports pack_size 0) and the explicit nullptr fallback, which
  // a store built under one backend but scored under another exercises.
  Rng rng(29);
  for (std::size_t b : {1u, 5u, 8u, 17u}) {
    for (std::size_t d : {1u, 8u, 33u}) {
      for (std::size_t h : {1u, 15u, 16u, 100u, 753u}) {
        const std::vector<std::int8_t> a = RandomS8(b * d, &rng);
        const std::vector<std::int8_t> bt = RandomS8(d * h, &rng);
        const std::vector<float> a_scales = RandomScales(b, &rng);
        const std::vector<float> col_scales = RandomScales(h, &rng);
        std::vector<const Backend*> backends = {&ScalarBackend()};
        if (SimdAvailable()) backends.push_back(Avx2Backend());
        for (const Backend* backend : backends) {
          std::vector<float> expected(b * h, -1.0f);
          backend->gemm_s8(a.data(), bt.data(), b, d, h, a_scales.data(),
                           col_scales.data(), expected.data());
          std::vector<std::int32_t> packed(
              backend->gemm_s8_pack_size(d, h));
          if (!packed.empty()) {
            backend->gemm_s8_pack(bt.data(), d, h, packed.data());
          }
          std::vector<float> via_pack(b * h, -2.0f);
          backend->gemm_s8_packed(
              a.data(), bt.data(), packed.empty() ? nullptr : packed.data(),
              b, d, h, a_scales.data(), col_scales.data(), via_pack.data());
          std::vector<float> via_null(b * h, -3.0f);
          backend->gemm_s8_packed(a.data(), bt.data(), nullptr, b, d, h,
                                  a_scales.data(), col_scales.data(),
                                  via_null.data());
          for (std::size_t e = 0; e < expected.size(); ++e) {
            ASSERT_EQ(expected[e], via_pack[e])
                << backend->name << " packed diverged at " << e << " b=" << b
                << " d=" << d << " h=" << h;
            ASSERT_EQ(expected[e], via_null[e])
                << backend->name << " null-pack diverged at " << e
                << " b=" << b << " d=" << d << " h=" << h;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// f64 GEMM and top-k scans: the AVX2 backend against the scalar reference
// --------------------------------------------------------------------------

/// A value stream mixing normals with every special class the f64 GEMM
/// and the scans must carry through unchanged: NaN, +-inf, +-0 and
/// subnormals (half the values are special).
double SpecialOrNormal(Rng* rng) {
  switch (rng->UniformInt(0, 11)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return 0.0;
    case 4:
      return -0.0;
    case 5:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng->UniformInt(-1000, 1000));
    default:
      return rng->Normal(0.0, 1.0);
  }
}

/// Bitwise equality, except that any two NaNs match: x86 keeps one
/// operand's NaN payload and the compiler may commute an add, so payload
/// bits are not part of either backend's contract.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

TEST(KernelsF64Test, GemmBitIdenticalAcrossBackends) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD backend on this CPU";
  Rng rng(31);
  for (const bool special : {false, true}) {
    for (std::size_t b : {1u, 3u, 4u, 5u, 17u}) {
      for (std::size_t h : {1u, 7u, 8u, 9u, 753u}) {
        for (std::size_t d : {1u, 63u, 64u}) {
          std::vector<double> a(b * d), bt(d * h);
          const auto draw = [&] {
            return special ? SpecialOrNormal(&rng) : rng.Normal(0.0, 1.0);
          };
          for (double& x : a) x = draw();
          for (double& x : bt) x = draw();
          std::vector<double> scalar(b * h, -1.0), simd(b * h, -2.0);
          ScalarBackend().gemm_f64(a.data(), bt.data(), b, d, h,
                                   scalar.data());
          Avx2Backend()->gemm_f64(a.data(), bt.data(), b, d, h, simd.data());
          for (std::size_t e = 0; e < scalar.size(); ++e) {
            ASSERT_TRUE(SameBits(scalar[e], simd[e]))
                << "b=" << b << " d=" << d << " h=" << h << " at " << e
                << ": " << scalar[e] << " vs " << simd[e];
          }
        }
      }
    }
  }
}

TEST(KernelsF64Test, ScalarGemmIsTheReferenceSum) {
  // The scalar backend is the reference order itself: 0.0 plus each
  // a[i,k] * bt[k,j] for k ascending, products rounded before the add.
  Rng rng(32);
  const std::size_t b = 5, d = 63, h = 9;
  std::vector<double> a(b * d), bt(d * h), out(b * h);
  for (double& x : a) x = rng.Normal(0.0, 1.0);
  for (double& x : bt) x = rng.Normal(0.0, 1.0);
  ScalarBackend().gemm_f64(a.data(), bt.data(), b, d, h, out.data());
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        acc += a[i * d + k] * bt[k * h + j];
      }
      ASSERT_TRUE(SameBits(acc, out[i * h + j])) << i << "," << j;
    }
  }
}

template <typename T>
void ExpectScansMatchScalar(std::uint64_t seed) {
  Rng rng(seed);
  const Backend& scalar = ScalarBackend();
  const Backend& simd = *Avx2Backend();
  for (std::size_t n : {1u, 7u, 8u, 9u, 31u, 40u, 753u}) {
    std::vector<T> x(n);
    for (T& v : x) v = static_cast<T>(SpecialOrNormal(&rng));
    for (std::size_t lanes : {8u, 16u, 24u, 32u, 72u}) {
      std::vector<T> want(lanes), got(lanes);
      if constexpr (sizeof(T) == 4) {
        scalar.lane_max_f32(x.data(), n, lanes, want.data());
        simd.lane_max_f32(x.data(), n, lanes, got.data());
      } else {
        scalar.lane_max_f64(x.data(), n, lanes, want.data());
        simd.lane_max_f64(x.data(), n, lanes, got.data());
      }
      // Equal as values: a zero maximum may carry either sign.
      for (std::size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(want[l], got[l])
            << "n=" << n << " lanes=" << lanes << " l=" << l;
        ASSERT_FALSE(std::isnan(got[l]));
      }
    }
    for (const T floor :
         {-std::numeric_limits<T>::infinity(), T(-0.0), T(0.0), T(0.5),
          std::numeric_limits<T>::infinity()}) {
      std::vector<std::uint32_t> want(n + 8), got(n + 8);
      std::size_t want_n = 0, got_n = 0;
      if constexpr (sizeof(T) == 4) {
        want_n = scalar.select_ge_f32(x.data(), n, floor, want.data());
        got_n = simd.select_ge_f32(x.data(), n, floor, got.data());
      } else {
        want_n = scalar.select_ge_f64(x.data(), n, floor, want.data());
        got_n = simd.select_ge_f64(x.data(), n, floor, got.data());
      }
      ASSERT_EQ(want_n, got_n) << "n=" << n << " floor=" << floor;
      want.resize(want_n);
      got.resize(got_n);
      EXPECT_EQ(want, got) << "n=" << n << " floor=" << floor;
      for (std::uint32_t i : got) ASSERT_GE(x[i], floor);
    }
  }
}

TEST(KernelsTopKScanTest, LaneMaxAndFilterMatchScalar) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD backend on this CPU";
  ExpectScansMatchScalar<float>(33);
  ExpectScansMatchScalar<double>(34);
}

TEST(KernelsInt8Test, QuantizeRoundTripIsExact) {
  // Dequantize → requantize must reproduce the same (values, scales) bit
  // for bit — the property that makes int8 artifacts round-trippable
  // through InferenceCheckpoint without drift.
  Rng rng(24);
  const tensor::Matrix m = tensor::Matrix::RandomNormal(13, 29, 0.0, 1.0, &rng);
  const quantize::QuantizedMatrix q = quantize::QuantizeRows(m);
  const tensor::Matrix deq = quantize::DequantizeToMatrix(
      q.values.data(), q.scales.data(), q.rows, q.cols);
  const quantize::QuantizedMatrix q2 = quantize::QuantizeRows(deq);
  ASSERT_EQ(q2.values.size(), q.values.size());
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    ASSERT_EQ(q2.values[i], q.values[i]) << "value " << i;
  }
  for (std::size_t r = 0; r < q.rows; ++r) {
    ASSERT_EQ(q2.scales[r], q.scales[r]) << "scale " << r;
  }
  // Every row's absmax must hit the full quantized range (symmetric scheme).
  for (std::size_t r = 0; r < q.rows; ++r) {
    std::int8_t absmax = 0;
    for (std::size_t c = 0; c < q.cols; ++c) {
      const std::int8_t v = q.values[r * q.cols + c];
      const std::int8_t a = v < 0 ? static_cast<std::int8_t>(-v) : v;
      if (a > absmax) absmax = a;
    }
    EXPECT_EQ(absmax, 127) << "row " << r;
  }
}

TEST(KernelsTest, ForceScalarOverridesDispatch) {
  {
    ScopedForceScalar force(true);
    EXPECT_STREQ(ActiveName(), "scalar");
    EXPECT_TRUE(ScalarForced());
  }
  // Outside the override, the active backend is whatever dispatch picked.
  if (SimdAvailable() && !ScalarForced()) {
    EXPECT_STREQ(ActiveName(), "avx2");
  } else {
    EXPECT_STREQ(ActiveName(), "scalar");
  }
}

TEST(KernelsTest, BackendSelectionLoggedExactlyOncePerResolution) {
  // The "kernel backend selected" INFO line is the audit trail for which
  // code path served traffic: exactly one line per effective resolution —
  // never one per Active() call — in both dispatched and forced-scalar
  // modes.
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) {
    if (line.find("kernel backend selected") != std::string::npos) {
      lines.push_back(line);
    }
  });
  const bool original_forced = ScalarForced();

  // Settle into forced-scalar and flush any pending selection log.
  ForceScalar(true);
  Active();
  lines.clear();

  // Repeated Active() calls in a settled mode must not log again.
  for (int i = 0; i < 5; ++i) Active();
  EXPECT_EQ(lines.size(), 0u);

  if (SimdAvailable()) {
    // Dispatched mode: exactly one line naming the SIMD backend.
    ForceScalar(false);
    for (int i = 0; i < 5; ++i) Active();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("avx2"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("cpuid dispatch"), std::string::npos) << lines[0];

    // Forced-scalar mode: exactly one more line naming the fallback.
    ForceScalar(true);
    for (int i = 0; i < 5; ++i) Active();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("scalar"), std::string::npos) << lines[1];
    EXPECT_NE(lines[1].find("scalar forced"), std::string::npos) << lines[1];
  } else {
    // Without SIMD both modes resolve to the same backend; flipping the
    // force flag must not produce a duplicate line.
    ForceScalar(false);
    for (int i = 0; i < 5; ++i) Active();
    EXPECT_EQ(lines.size(), 0u);
  }

  ForceScalar(original_forced);
  Active();  // settle (and possibly log) the restored mode before unhooking
  SetLogSink(nullptr);
}

TEST(KernelsTest, BackendsAgreeWithinFloatTolerance) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD backend in this build";
  Rng rng(15);
  const std::size_t d = 64, h = 753;
  const std::vector<float> x = RandomVec(d, &rng);
  const std::vector<float> bt = RandomVec(d * h, &rng);
  std::vector<float> scalar(h), simd(h);
  ScalarBackend().gemv_f32(x.data(), bt.data(), d, h, scalar.data());
  Avx2Backend()->gemv_f32(x.data(), bt.data(), d, h, simd.data());
  for (std::size_t j = 0; j < h; ++j) {
    EXPECT_NEAR(scalar[j], simd[j], 1e-4f * (1.0f + std::abs(scalar[j])))
        << "j=" << j;
  }
}

// --------------------------------------------------------------------------
// f32 vs f64 serving parity: the acceptance properties the float path
// ships under. Swept over embedding dims and herb-catalog sizes, at 1 and
// 4 kernel threads, under both the dispatched and the forced-scalar f32
// backend:
//   * top-20 agreement >= 0.999 across all queries, and
//   * |NDCG@20 delta| <= 1e-4 per query
// against the bit-exact f64 reference ranking.
// --------------------------------------------------------------------------

core::InferenceCheckpoint ParityCheckpoint(std::size_t num_symptoms,
                                           std::size_t num_herbs,
                                           std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "parity";
  ckpt.symptom_embeddings =
      tensor::Matrix::RandomNormal(num_symptoms, dim, 0.0, 1.0, &rng);
  ckpt.herb_embeddings =
      tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = true;
  ckpt.si_weight = tensor::Matrix::RandomNormal(dim, dim, 0.0, 0.5, &rng);
  ckpt.si_bias = tensor::Matrix::RandomNormal(1, dim, 0.0, 0.5, &rng);
  return ckpt;
}

std::vector<std::vector<int>> ParityQueries(std::size_t count,
                                            std::size_t num_symptoms,
                                            Rng* rng) {
  std::vector<std::vector<int>> queries(count);
  for (auto& q : queries) {
    const std::size_t size = static_cast<std::size_t>(rng->UniformInt(1, 5));
    std::set<int> ids;
    while (ids.size() < size) {
      ids.insert(static_cast<int>(
          rng->UniformInt(0, static_cast<std::int64_t>(num_symptoms) - 1)));
    }
    q.assign(ids.begin(), ids.end());
  }
  return queries;
}

void RunParitySweep(bool force_scalar) {
  constexpr std::size_t kTopK = 20;
  constexpr std::size_t kQueries = 64;
  ScopedForceScalar force(force_scalar);
  struct Shape {
    std::size_t dim, herbs;
  };
  // Paper-scale (d=64, H=753 for TCM) plus small/ragged shapes that stress
  // the kernel tails.
  const Shape shapes[] = {{8, 40}, {16, 257}, {64, 753}, {33, 100}};
  const std::size_t original_threads = parallel::GetNumThreads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::SetNumThreads(threads);
    for (const Shape& shape : shapes) {
      const std::size_t num_symptoms = 48;
      core::InferenceCheckpoint ckpt =
          ParityCheckpoint(num_symptoms, shape.herbs, shape.dim, 907);
      auto f64_store = serve::EmbeddingStore::Build(ckpt);
      auto f32_store =
          serve::EmbeddingStore::Build(ckpt, Precision::kFloat32);
      ASSERT_TRUE(f64_store.ok());
      ASSERT_TRUE(f32_store.ok());

      Rng rng(shape.dim * 1000 + shape.herbs);
      std::size_t agree = 0, total = 0;
      for (const auto& raw : ParityQueries(kQueries, num_symptoms, &rng)) {
        const serve::CanonicalQuery q =
            *serve::Canonicalize(raw, num_symptoms);
        const std::size_t k = std::min(kTopK, f64_store->num_herbs());
        const std::vector<std::size_t> ref =
            eval::TopK(f64_store->ScoreOne(q), k);
        const std::vector<std::size_t> got =
            eval::TopK(f32_store->ScoreOne(q), k);
        ASSERT_EQ(got.size(), ref.size());
        const std::set<std::size_t> got_set(got.begin(), got.end());
        for (std::size_t id : ref) agree += got_set.count(id);
        total += ref.size();

        // NDCG@20 of each ranking against the f64 top-k as the relevant
        // set: the reference scores 1.0 by construction, so the delta is
        // how much ranking quality the narrowing cost.
        std::vector<int> relevant(ref.begin(), ref.end());
        const double ndcg_ref = eval::NdcgAtK(ref, relevant, k);
        const double ndcg_f32 = eval::NdcgAtK(got, relevant, k);
        EXPECT_NEAR(ndcg_ref, 1.0, 1e-12);
        EXPECT_LE(std::abs(ndcg_ref - ndcg_f32), 1e-4)
            << "d=" << shape.dim << " H=" << shape.herbs
            << " threads=" << threads << " scalar=" << force_scalar;
      }
      const double agreement =
          static_cast<double>(agree) / static_cast<double>(total);
      EXPECT_GE(agreement, 0.999)
          << "d=" << shape.dim << " H=" << shape.herbs
          << " threads=" << threads << " scalar=" << force_scalar;
    }
  }
  parallel::SetNumThreads(original_threads);
}

TEST(PrecisionParityTest, DispatchedKernels) { RunParitySweep(false); }

TEST(PrecisionParityTest, ForcedScalarKernels) { RunParitySweep(true); }

// --------------------------------------------------------------------------
// int8 vs f64 serving parity: the acceptance properties the quantized path
// ships under. Same sweep grid as f32 (4 shapes × {1,4} threads × both
// dispatch modes) with bars matched to 8-bit resolution:
//   * top-20 agreement >= 0.99 aggregated over each cell's queries, and
//   * mean graded-NDCG@20 delta <= 1e-3 per cell, with gains taken from the
//     f64 scores themselves (shifted non-negative). Binary relevance would
//     charge ~0.026 for a single boundary swap of two statistically tied
//     herbs, which measures tie-breaking luck rather than quality; graded
//     gains charge a swap by the actual score mass it loses.
//
// The checkpoint gives herb rows a log-normal norm spread, matching trained
// recommendation embeddings where frequent-herb rows grow larger norms (see
// bench_fig5_herb_freq). Per-row quantization scales absorb the spread
// exactly — it is the workload the per-row scheme exists for. With i.i.d.
// N(0,1) rows instead, adjacent top-20 scores are statistical ties and NO
// finite-precision scheme can reproduce their order.
// --------------------------------------------------------------------------

core::InferenceCheckpoint Int8ParityCheckpoint(std::size_t num_symptoms,
                                               std::size_t num_herbs,
                                               std::size_t dim,
                                               std::uint64_t seed) {
  Rng rng(seed);
  core::InferenceCheckpoint ckpt = ParityCheckpoint(num_symptoms, num_herbs,
                                                    dim, seed);
  for (std::size_t i = 0; i < num_herbs; ++i) {
    const double scale = std::exp(rng.Normal(0.0, 0.5));
    for (std::size_t c = 0; c < dim; ++c) ckpt.herb_embeddings(i, c) *= scale;
  }
  return ckpt;
}

// NDCG@k of `ranking` where herb j's gain is its f64 score shifted to be
// non-negative. The ideal ranking is the f64 descending score order, so the
// f64 ranking itself scores exactly 1.
double GradedNdcgAtK(const std::vector<std::size_t>& ranking,
                     const std::vector<double>& scores, std::size_t k) {
  const double lo = *std::min_element(scores.begin(), scores.end());
  std::vector<double> gains(scores.size());
  for (std::size_t j = 0; j < scores.size(); ++j) gains[j] = scores[j] - lo;
  std::vector<double> ideal = gains;
  std::sort(ideal.begin(), ideal.end(),
            [](double a, double b) { return a > b; });
  double dcg = 0.0, idcg = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double weight = 1.0 / std::log2(static_cast<double>(i) + 2.0);
    dcg += gains[ranking[i]] * weight;
    idcg += ideal[i] * weight;
  }
  return idcg > 0.0 ? dcg / idcg : 1.0;
}

void RunInt8ParitySweep(bool force_scalar) {
  constexpr std::size_t kTopK = 20;
  constexpr std::size_t kQueries = 64;
  ScopedForceScalar force(force_scalar);
  struct Shape {
    std::size_t dim, herbs;
  };
  const Shape shapes[] = {{8, 40}, {16, 257}, {64, 753}, {33, 100}};
  const std::size_t original_threads = parallel::GetNumThreads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::SetNumThreads(threads);
    for (const Shape& shape : shapes) {
      const std::size_t num_symptoms = 48;
      core::InferenceCheckpoint ckpt =
          Int8ParityCheckpoint(num_symptoms, shape.herbs, shape.dim, 907);
      auto f64_store = serve::EmbeddingStore::Build(ckpt);
      auto s8_store = serve::EmbeddingStore::Build(ckpt, Precision::kInt8);
      ASSERT_TRUE(f64_store.ok());
      ASSERT_TRUE(s8_store.ok());

      Rng rng(shape.dim * 1000 + shape.herbs);
      std::size_t agree = 0, total = 0;
      double ndcg_delta_sum = 0.0;
      std::size_t query_count = 0;
      for (const auto& raw : ParityQueries(kQueries, num_symptoms, &rng)) {
        const serve::CanonicalQuery q =
            *serve::Canonicalize(raw, num_symptoms);
        const std::size_t k = std::min(kTopK, f64_store->num_herbs());
        const std::vector<double> ref_scores = f64_store->ScoreOne(q);
        const std::vector<std::size_t> ref = eval::TopK(ref_scores, k);
        const std::vector<std::size_t> got =
            eval::TopK(s8_store->ScoreOne(q), k);
        ASSERT_EQ(got.size(), ref.size());
        const std::set<std::size_t> got_set(got.begin(), got.end());
        for (std::size_t id : ref) agree += got_set.count(id);
        total += ref.size();

        const double ndcg_ref = GradedNdcgAtK(ref, ref_scores, k);
        const double ndcg_s8 = GradedNdcgAtK(got, ref_scores, k);
        EXPECT_NEAR(ndcg_ref, 1.0, 1e-12);
        ndcg_delta_sum += std::abs(ndcg_ref - ndcg_s8);
        ++query_count;
      }
      const double agreement =
          static_cast<double>(agree) / static_cast<double>(total);
      EXPECT_GE(agreement, 0.99)
          << "d=" << shape.dim << " H=" << shape.herbs
          << " threads=" << threads << " scalar=" << force_scalar;
      const double mean_ndcg_delta =
          ndcg_delta_sum / static_cast<double>(query_count);
      EXPECT_LE(mean_ndcg_delta, 1e-3)
          << "d=" << shape.dim << " H=" << shape.herbs
          << " threads=" << threads << " scalar=" << force_scalar;
    }
  }
  parallel::SetNumThreads(original_threads);
}

TEST(Int8ParityTest, DispatchedKernels) { RunInt8ParitySweep(false); }

TEST(Int8ParityTest, ForcedScalarKernels) { RunInt8ParitySweep(true); }

TEST(Int8ParityTest, BatchedScoresBitIdenticalToSingleQueryPerBackend) {
  // The end-to-end face of the kernel-level GEMM==GEMV property: within one
  // backend, int8 ScoreBatchInto rows must reproduce ScoreOne bit for bit. (The
  // two backends may differ from each other: the f32 SI-MLP stage that
  // produces the activations is reduction-order sensitive, so only the
  // int8 stage itself is cross-backend exact — covered at kernel level by
  // GemmRowsBitIdenticalToGemvAndAcrossBackends.)
  core::InferenceCheckpoint ckpt = Int8ParityCheckpoint(48, 257, 33, 907);
  auto store = serve::EmbeddingStore::Build(ckpt, Precision::kInt8);
  ASSERT_TRUE(store.ok());
  Rng rng(77);
  const auto raw = ParityQueries(12, 48, &rng);
  std::vector<serve::CanonicalQuery> batch;
  for (const auto& ids : raw) batch.push_back(*serve::Canonicalize(ids, 48));

  for (const bool force_scalar : {false, true}) {
    if (!force_scalar && !SimdAvailable()) continue;
    ScopedForceScalar force(force_scalar);
    std::vector<std::vector<double>> batched(batch.size());
    store->ScoreBatchInto(batch, batched.data());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> one = store->ScoreOne(batch[i]);
      ASSERT_EQ(one.size(), batched[i].size());
      for (std::size_t j = 0; j < batched[i].size(); ++j) {
        ASSERT_EQ(batched[i][j], one[j])
            << "batch-vs-single divergence at (" << i << "," << j
            << ") scalar=" << force_scalar;
      }
    }
  }
}

TEST(PrecisionParityTest, EngineEndToEndTopKAgreement) {
  // Same property through the full serving engine (canonicalize → cache →
  // parallel GEMM → top-k), 1 and 4 threads.
  constexpr std::size_t kTopK = 20;
  const std::size_t original_threads = parallel::GetNumThreads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::SetNumThreads(threads);
    core::InferenceCheckpoint ckpt = ParityCheckpoint(48, 257, 16, 907);
    serve::ServingEngineOptions options;
    options.cache_capacity = 0;  // every request exercises the GEMM
    auto f64_snapshot = serve::MakeModelSnapshot(ckpt, "v1");
    auto f32_snapshot =
        serve::MakeModelSnapshot(ckpt, "v1", Precision::kFloat32);
    ASSERT_TRUE(f64_snapshot.ok());
    ASSERT_TRUE(f32_snapshot.ok());
    auto f64_engine =
        serve::ServingEngine::CreateFromSnapshot(*f64_snapshot, options);
    auto f32_engine =
        serve::ServingEngine::CreateFromSnapshot(*f32_snapshot, options);
    ASSERT_TRUE(f64_engine.ok());
    ASSERT_TRUE(f32_engine.ok());

    Rng rng(31);
    const auto queries = ParityQueries(64, 48, &rng);
    std::vector<serve::Request> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].symptoms = queries[i];
      requests[i].top_k = kTopK;
    }
    const auto ref = (*f64_engine)->HandleBatch(requests);
    const auto got = (*f32_engine)->HandleBatch(requests);
    std::size_t agree = 0, total = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(ref[i].ok());
      ASSERT_TRUE(got[i].ok());
      const std::set<std::size_t> got_set(got[i].herb_ids.begin(),
                                          got[i].herb_ids.end());
      for (std::size_t id : ref[i].herb_ids) agree += got_set.count(id);
      total += ref[i].herb_ids.size();
    }
    EXPECT_GE(static_cast<double>(agree) / static_cast<double>(total), 0.999)
        << "threads=" << threads;
  }
  parallel::SetNumThreads(original_threads);
}

}  // namespace
}  // namespace kernels
}  // namespace tensor
}  // namespace smgcn
