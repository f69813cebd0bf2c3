// Thread-scaling benchmark for the smgcn::parallel kernel layer (ISSUE 2):
// dense GEMM, sparse SpMM and a full SMGCN training run at 1/2/4/8 worker
// threads. Besides wall-clock speedups it re-checks the determinism
// contract — every multi-thread result must be bit-identical to the
// single-thread run, because the kernels partition over output rows only.
//
// Writes bench_results/parallel_scaling.csv. Speedups are relative to the
// 1-thread run of the same workload; on hosts with fewer physical cores
// than the swept count the extra workers cannot help, so the CSV records
// the host's hardware_concurrency for the reader to judge against.
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/registry.h"
#include "src/graph/csr_matrix.h"
#include "src/tensor/matrix.h"
#include "src/util/parallel.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace bench {
namespace {

using graph::CsrMatrix;
using graph::Triplet;
using tensor::Matrix;

// GEMM at serving scale: scoring a 512-query batch against the paper's 753
// herbs at embedding width 64 (the Table VII optimum), plus the matching
// backward-shaped (gather) product.
constexpr std::size_t kBatch = 512;
constexpr std::size_t kDim = 64;
constexpr std::size_t kHerbs = 753;
constexpr std::size_t kGemmReps = 20;

// SpMM at graph-propagation scale: a synergy-style adjacency with mean
// degree ~24 multiplying an embedding table.
constexpr std::size_t kSpmmRows = 2000;
constexpr std::size_t kSpmmCols = 2000;
constexpr std::int64_t kSpmmDegree = 24;
constexpr std::size_t kSpmmReps = 50;

constexpr std::size_t kEpochBudget = 2;

struct Workload {
  std::string name;
  /// Runs the workload once at the current thread count and returns the
  /// result matrices, whose bits must match the 1-thread run.
  std::function<std::vector<Matrix>()> run;
};

struct Row {
  std::string workload;
  std::size_t threads = 0;
  double seconds = 0.0;
  double speedup = 0.0;
  bool bit_identical = true;
};

bool BitsEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitsEqual(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!BitsEqual(a[i], b[i])) return false;
  }
  return true;
}

/// One GEMM workload: forward scoring (MatMul + MatMulTransposed) and the
/// backward-shaped gather product (TransposedMatMul), repeated kGemmReps
/// times. Returns the last scores and gradient for the bit check.
std::vector<Matrix> GemmOnce(const Matrix& queries, const Matrix& w,
                             const Matrix& herbs) {
  Matrix scores(1, 1);
  Matrix grad_w(1, 1);
  for (std::size_t rep = 0; rep < kGemmReps; ++rep) {
    const Matrix hidden = queries.MatMul(w);              // batch x dim
    scores = hidden.MatMulTransposed(herbs);              // batch x herbs
    grad_w = queries.TransposedMatMul(hidden);            // dim x dim
  }
  return {std::move(scores), std::move(grad_w)};
}

std::vector<Matrix> SpmmOnce(const CsrMatrix& adj, const Matrix& x) {
  Matrix out(1, 1);
  for (std::size_t rep = 0; rep < kSpmmReps; ++rep) {
    Matrix fwd = adj.Multiply(x);        // row-propagation
    out = adj.TransposeMultiply(fwd);    // gather form
  }
  return {std::move(out)};
}

/// Trains the compact-corpus SMGCN for a fixed small epoch budget and
/// returns the score matrix over a probe batch, which hashes the entire
/// trained parameter state.
std::vector<Matrix> TrainOnce(const data::TrainTestSplit& split) {
  core::ModelSpec spec = CompactSpecFor("SMGCN");
  spec.train.epochs = kEpochBudget;
  spec.train.validation_fraction = 0.0;
  auto model = core::MakeModel(spec);
  SMGCN_CHECK_OK(model.status());
  SMGCN_CHECK_OK((*model)->Fit(split.train));
  std::vector<std::vector<double>> rows;
  for (int s = 0; s < 16; ++s) {
    auto scores = (*model)->Score({s % 4, s % 7 + 8, s % 11 + 20});
    SMGCN_CHECK_OK(scores.status());
    rows.push_back(*std::move(scores));
  }
  Matrix out(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) out(r, c) = rows[r][c];
  }
  return {std::move(out)};
}

bool Run() {
  PrintHeader(
      "Parallel kernel scaling — GEMM / SpMM / training epoch vs threads",
      "smgcn::parallel routes output-row-partitioned kernels; results must "
      "be bit-identical at every thread count");
  const std::size_t hw = parallel::HardwareThreads();
  std::printf("hardware_concurrency=%zu — speedups above that core count "
              "cannot materialise on this host\n\n", hw);

  Rng rng(20260806);
  const Matrix queries = Matrix::RandomNormal(kBatch, kDim, 0.0, 1.0, &rng);
  const Matrix w = Matrix::RandomNormal(kDim, kDim, 0.0, 0.3, &rng);
  const Matrix herbs = Matrix::RandomNormal(kHerbs, kDim, 0.0, 1.0, &rng);

  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < kSpmmRows; ++r) {
    const std::int64_t degree = 1 + rng.UniformInt(0, 2 * kSpmmDegree - 1);
    for (std::int64_t e = 0; e < degree; ++e) {
      triplets.push_back(
          {r,
           static_cast<std::size_t>(
               rng.UniformInt(0, static_cast<std::int64_t>(kSpmmCols) - 1)),
           rng.Uniform(0.1, 1.0)});
    }
  }
  const CsrMatrix adj =
      CsrMatrix::FromTriplets(kSpmmRows, kSpmmCols, std::move(triplets));
  const Matrix x = Matrix::RandomNormal(kSpmmCols, kDim, 0.0, 1.0, &rng);

  const data::TrainTestSplit split = MakeCompactSplit();

  const std::vector<Workload> workloads = {
      {"gemm_512x64x753", [&] { return GemmOnce(queries, w, herbs); }},
      {"spmm_2000xd24_f64",
       [&] { return SpmmOnce(adj, x); }},
      {StrFormat("train_epochs%zu_compact", kEpochBudget),
       [&] { return TrainOnce(split); }},
  };

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Row> rows;
  bool all_identical = true;
  // parallel::SetNumThreads is the one thread knob, for the kernels and for
  // training alike; the caller's setting is restored afterwards.
  const std::size_t previous_threads = parallel::GetNumThreads();
  for (const Workload& wl : workloads) {
    std::vector<Matrix> ref;
    double base_seconds = 0.0;
    for (const std::size_t threads : thread_counts) {
      parallel::SetNumThreads(threads);
      Stopwatch watch;
      const std::vector<Matrix> out = wl.run();
      Row row;
      row.workload = wl.name;
      row.threads = threads;
      row.seconds = watch.ElapsedSeconds();
      if (threads == 1) {
        ref = out;
        base_seconds = row.seconds;
      }
      row.speedup = base_seconds / row.seconds;
      row.bit_identical = BitsEqual(out, ref);
      all_identical = all_identical && row.bit_identical;
      rows.push_back(row);
    }
  }
  parallel::SetNumThreads(previous_threads);

  TablePrinter table({"workload", "threads", "seconds", "speedup", "bit_id"});
  CsvWriter csv({"workload", "threads", "hardware_concurrency", "seconds",
                 "speedup_vs_1t", "bit_identical"});
  for (const Row& row : rows) {
    table.AddRow({row.workload, std::to_string(row.threads),
                  StrFormat("%.3f", row.seconds),
                  StrFormat("%.2fx", row.speedup),
                  row.bit_identical ? "yes" : "NO"});
    SMGCN_CHECK_OK(csv.AddRow(
        {row.workload, std::to_string(row.threads), std::to_string(hw),
         StrFormat("%.4f", row.seconds), StrFormat("%.3f", row.speedup),
         row.bit_identical ? "1" : "0"}));
  }
  table.Print();
  WriteResultsCsv("parallel_scaling", csv);

  if (!all_identical) {
    std::printf("\nFAIL: some multi-thread result was not bit-identical to "
                "the 1-thread run\n");
    return false;
  }
  std::printf("\nAll multi-thread results bit-identical to 1-thread runs.\n");
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace smgcn

int main() { return smgcn::bench::Run() ? 0 : 1; }
