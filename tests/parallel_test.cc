// Tests for smgcn::parallel and the determinism contract of the kernels
// built on it: sequential (1 thread) and parallel (2, 7, hardware) runs of
// every routed kernel must produce bit-identical outputs, because the
// partition is over output rows and each row runs the same sequential
// inner loop regardless of thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <limits>
#include <vector>

#include "src/graph/csr_matrix.h"
#include "src/obs/registry.h"
#include "src/tensor/matrix.h"
#include "src/util/parallel.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace smgcn {
namespace {

using graph::CsrMatrix;
using graph::Triplet;
using tensor::Matrix;

// Restores a known worker count even when a test fails mid-way, so later
// tests (and other suites in this binary) start from one thread.
class ParallelTest : public testing::Test {
 protected:
  void TearDown() override { parallel::SetNumThreads(1); }
};

TEST_F(ParallelTest, SetAndGetNumThreads) {
  parallel::SetNumThreads(3);
  EXPECT_EQ(parallel::GetNumThreads(), 3u);
  parallel::SetNumThreads(1);
  EXPECT_EQ(parallel::GetNumThreads(), 1u);
  parallel::SetNumThreads(0);  // 0 = hardware
  EXPECT_EQ(parallel::GetNumThreads(), parallel::HardwareThreads());
}

TEST_F(ParallelTest, CoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::SetNumThreads(threads);
    std::vector<std::atomic<int>> hits(1001);
    parallel::ParallelFor(3, hits.size(), 1,
                          [&hits](std::size_t b, std::size_t e) {
                            for (std::size_t i = b; i < e; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), i < 3 ? 0 : 1) << "index " << i;
    }
  }
}

TEST_F(ParallelTest, EmptyRangeIsNoop) {
  parallel::SetNumThreads(4);
  parallel::ParallelFor(5, 5, 1, [](std::size_t, std::size_t) {
    FAIL() << "must not run";
  });
}

TEST_F(ParallelTest, GrainLowerBoundsChunkSize) {
  parallel::SetNumThreads(4);
  std::atomic<int> undersized{0};
  constexpr std::size_t kGrain = 100;
  constexpr std::size_t kN = 1000;
  parallel::ParallelFor(0, kN, kGrain,
                        [&undersized](std::size_t b, std::size_t e) {
                          // Only the final chunk may carry the remainder.
                          if (e - b < kGrain && e != kN) undersized.fetch_add(1);
                        });
  EXPECT_EQ(undersized.load(), 0);
}

TEST_F(ParallelTest, NestedCallsRunInline) {
  parallel::SetNumThreads(4);
  std::atomic<int> total{0};
  parallel::ParallelFor(0, 8, 1, [&total](std::size_t b, std::size_t e) {
    EXPECT_TRUE(parallel::InParallelRegion());
    for (std::size_t i = b; i < e; ++i) {
      parallel::ParallelFor(0, 10, 1, [&total](std::size_t nb, std::size_t ne) {
        total.fetch_add(static_cast<int>(ne - nb));
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
  EXPECT_FALSE(parallel::InParallelRegion());
}

TEST_F(ParallelTest, RunBlocksFinishesWithEveryWorkerBusy) {
  // The pool's only worker is blocked, as a drainer scoring its own batch
  // would be: the caller claims every block itself, each exactly once, and
  // the helper that runs later finds none left.
  parallel::SetNumThreads(4);
  ThreadPool pool(1);
  std::latch release(1);
  pool.Submit([&release] { release.wait(); });
  obs::Counter* inline_runs =
      obs::Registry::Global().GetCounter("parallel.inline_runs");
  const std::uint64_t inline_before = inline_runs->value();

  constexpr std::size_t kN = 100;
  constexpr std::size_t kBlock = 16;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> blocks{0};
  std::atomic<int> outside_region{0};
  std::atomic<int> nested_total{0};
  parallel::RunBlocks(&pool, kN, kBlock, [&](std::size_t b, std::size_t e) {
    blocks.fetch_add(1);
    if (b % kBlock != 0 || (e - b != kBlock && e != kN)) ADD_FAILURE();
    if (!parallel::InParallelRegion()) outside_region.fetch_add(1);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    // A kernel nested in a block runs inline, whatever the global pool.
    parallel::ParallelFor(0, 64, 1, [&](std::size_t nb, std::size_t ne) {
      nested_total.fetch_add(static_cast<int>(ne - nb));
    });
  });
  EXPECT_FALSE(parallel::InParallelRegion());
  release.count_down();
  pool.Wait();

  EXPECT_EQ(blocks.load(), 7);  // ceil(100 / 16)
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(outside_region.load(), 0);
  EXPECT_EQ(nested_total.load(), 7 * 64);
  EXPECT_GE(inline_runs->value() - inline_before, 7u);
}

// A process whose first parallel call is GetNumThreads() (every serving
// engine sized from the hardware makes that call) must still get the shared
// pool: ParallelFor over more than its grain fans out. Runs in a fresh
// process, where nothing has resolved the worker count yet.
TEST(ParallelFreshProcessTest, GetNumThreadsFirstStillFansOut) {
  if (parallel::HardwareThreads() < 2) {
    GTEST_SKIP() << "one hardware thread: nothing can fan out";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        obs::Counter* fanout =
            obs::Registry::Global().GetCounter("parallel.fanout_runs");
        const std::uint64_t before = fanout->value();
        parallel::GetNumThreads();
        parallel::ParallelFor(0, 1000, 10, [](std::size_t, std::size_t) {});
        std::exit(fanout->value() > before ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

// --------------------------------------------------------------------------
// Bit-identity properties: sequential vs parallel kernels
// --------------------------------------------------------------------------

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<std::size_t> TestedThreadCounts() {
  return {1, 2, 7, parallel::HardwareThreads()};
}

/// Sparsifies ~30% of entries so the GEMM zero-skip fast path is exercised.
Matrix SparseRandom(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m = Matrix::RandomNormal(rows, cols, 0.0, 1.0, rng);
  m.Apply([rng](double v) { return rng->Uniform(0.0, 1.0) < 0.3 ? 0.0 : v; });
  return m;
}

class KernelDeterminism : public ParallelTest,
                          public testing::WithParamInterface<int> {};

TEST_P(KernelDeterminism, DenseKernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = static_cast<std::size_t>(16 + rng.UniformInt(0, 80));
  const std::size_t k = static_cast<std::size_t>(16 + rng.UniformInt(0, 64));
  const std::size_t n = static_cast<std::size_t>(16 + rng.UniformInt(0, 96));
  const Matrix a = SparseRandom(m, k, &rng);
  const Matrix b = SparseRandom(k, n, &rng);
  const Matrix c = SparseRandom(m, n, &rng);   // for this^T * other
  const Matrix bt = SparseRandom(n, k, &rng);  // for this * other^T

  parallel::SetNumThreads(1);
  const Matrix matmul_ref = a.MatMul(b);
  const Matrix tmm_ref = a.TransposedMatMul(c);
  const Matrix mmt_ref = a.MatMulTransposed(bt);
  const Matrix transpose_ref = a.Transpose();

  for (std::size_t threads : TestedThreadCounts()) {
    parallel::SetNumThreads(threads);
    EXPECT_TRUE(BitIdentical(a.MatMul(b), matmul_ref)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(a.TransposedMatMul(c), tmm_ref))
        << threads << " threads";
    EXPECT_TRUE(BitIdentical(a.MatMulTransposed(bt), mmt_ref))
        << threads << " threads";
    EXPECT_TRUE(BitIdentical(a.Transpose(), transpose_ref))
        << threads << " threads";
  }
}

TEST_P(KernelDeterminism, ElementwiseKernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  // Big enough that the flat-partitioned element-wise kernels actually fan
  // out (their grain is 2^15 entries).
  const Matrix a = Matrix::RandomNormal(260, 300, 0.0, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(260, 300, 0.0, 1.0, &rng);

  parallel::SetNumThreads(1);
  Matrix add_ref = a;
  add_ref.AddInPlace(b);
  Matrix axpy_ref = a;
  axpy_ref.AddScaled(b, -1.75);
  const Matrix mul_ref = a.Mul(b);
  const Matrix scale_ref = a.Scale(3.25);

  for (std::size_t threads : TestedThreadCounts()) {
    parallel::SetNumThreads(threads);
    Matrix add = a;
    add.AddInPlace(b);
    Matrix axpy = a;
    axpy.AddScaled(b, -1.75);
    EXPECT_TRUE(BitIdentical(add, add_ref)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(axpy, axpy_ref)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(a.Mul(b), mul_ref)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(a.Scale(3.25), scale_ref)) << threads << " threads";
  }
}

TEST_P(KernelDeterminism, SparseKernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const std::size_t rows = static_cast<std::size_t>(40 + rng.UniformInt(0, 120));
  const std::size_t cols = static_cast<std::size_t>(40 + rng.UniformInt(0, 120));
  const std::size_t d = static_cast<std::size_t>(8 + rng.UniformInt(0, 56));
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t degree = 1 + rng.UniformInt(0, 6);
    for (std::int64_t e = 0; e < degree; ++e) {
      triplets.push_back({r,
                          static_cast<std::size_t>(
                              rng.UniformInt(0, static_cast<std::int64_t>(cols) - 1)),
                          rng.Uniform(0.1, 2.0)});
    }
  }
  const CsrMatrix adj = CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
  const Matrix x = Matrix::RandomNormal(cols, d, 0.0, 1.0, &rng);
  const Matrix y = Matrix::RandomNormal(rows, d, 0.0, 1.0, &rng);

  parallel::SetNumThreads(1);
  const Matrix spmm_ref = adj.Multiply(x);
  const Matrix spmmt_ref = adj.TransposeMultiply(y);

  for (std::size_t threads : TestedThreadCounts()) {
    parallel::SetNumThreads(threads);
    EXPECT_TRUE(BitIdentical(adj.Multiply(x), spmm_ref)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(adj.TransposeMultiply(y), spmmt_ref))
        << threads << " threads";
  }
}

TEST_P(KernelDeterminism, NonFiniteOperandsStayBitIdentical) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  Matrix a = SparseRandom(48, 40, &rng);
  Matrix b = SparseRandom(40, 56, &rng);
  // Poison B so the zero-skip fast path is disabled and NaN/Inf must flow
  // through identically on every thread count.
  b(3, 7) = std::numeric_limits<double>::quiet_NaN();
  b(11, 0) = std::numeric_limits<double>::infinity();

  const Matrix y = Matrix::RandomNormal(40, 24, 0.0, 1.0, &rng);

  parallel::SetNumThreads(1);
  const Matrix matmul_ref = a.MatMul(b);
  const Matrix tmm_ref = b.TransposedMatMul(y);

  for (std::size_t threads : TestedThreadCounts()) {
    parallel::SetNumThreads(threads);
    const Matrix matmul = a.MatMul(b);
    const Matrix tmm = b.TransposedMatMul(y);
    ASSERT_EQ(matmul.rows(), matmul_ref.rows());
    // NaN != NaN, so compare bits, not values.
    EXPECT_EQ(std::memcmp(matmul.data(), matmul_ref.data(),
                          matmul.size() * sizeof(double)),
              0)
        << threads << " threads";
    EXPECT_EQ(
        std::memcmp(tmm.data(), tmm_ref.data(), tmm.size() * sizeof(double)), 0)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDeterminism,
                         testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace smgcn
