// Micro-benchmarks (google-benchmark) of the kernels behind training:
// dense matmul variants, sparse propagation, Adam, losses, metric ranking
// and graph construction.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/autograd/ops.h"
#include "src/core/trainer.h"
#include "src/data/tcm_generator.h"
#include "src/eval/metrics.h"
#include "src/graph/graph_builder.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/tensor/kernels.h"
#include "src/util/random.h"

namespace smgcn {
namespace {

using tensor::Matrix;

void BM_DenseMatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, 0.0, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(n, n, 0.0, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_DenseMatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = Matrix::RandomNormal(512, n, 0.0, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(220, n, 0.0, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMulTransposed(b));  // the scoring kernel
  }
}
BENCHMARK(BM_MatMulTransposed)->Arg(64)->Arg(128)->Arg(256);

graph::CsrMatrix RandomSparse(std::size_t rows, std::size_t cols, double density,
                              Rng* rng) {
  std::vector<graph::Triplet> triplets;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng->Bernoulli(density)) triplets.push_back({r, c, rng->Uniform()});
    }
  }
  return graph::CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

void BM_SpMM(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const graph::CsrMatrix adj = RandomSparse(120, 220, 0.2, &rng);
  const Matrix x = Matrix::RandomNormal(220, dim, 0.0, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(adj.nnz() * dim));
}
BENCHMARK(BM_SpMM)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_SpMMTranspose(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const graph::CsrMatrix adj = RandomSparse(120, 220, 0.2, &rng);
  const Matrix grad = Matrix::RandomNormal(120, dim, 0.0, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.TransposeMultiply(grad));
  }
}
BENCHMARK(BM_SpMMTranspose)->Arg(64)->Arg(128);

void BM_AdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::ParameterStore store;
  Rng rng(5);
  auto w = store.Create("w", Matrix::RandomNormal(n, n, 0.0, 1.0, &rng));
  w->AccumulateGrad(Matrix::RandomNormal(n, n, 0.0, 1.0, &rng));
  nn::Adam adam(&store, 1e-3);
  for (auto _ : state) {
    adam.Step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_AdamStep)->Arg(128)->Arg(256);

void BM_WeightedMseForwardBackward(benchmark::State& state) {
  Rng rng(6);
  const std::size_t batch = 512, herbs = 220;
  Matrix targets(batch, herbs, 0.0);
  for (std::size_t r = 0; r < batch; ++r) {
    for (int k = 0; k < 8; ++k) {
      targets(r, static_cast<std::size_t>(rng.UniformInt(0, herbs - 1))) = 1.0;
    }
  }
  std::vector<double> weights(herbs, 1.0);
  for (auto _ : state) {
    auto scores = autograd::MakeVariable(
        Matrix::RandomNormal(batch, herbs, 0.0, 1.0, &rng), true);
    auto loss = nn::WeightedMseLoss(scores, targets, weights);
    autograd::Backward(loss);
    benchmark::DoNotOptimize(scores->grad());
  }
}
BENCHMARK(BM_WeightedMseForwardBackward);

// f32 scoring micro-kernels (tensor::kernels) at the serving shape: a
// B x d query block against the transposed herb matrix (d x H, H = 753,
// the real corpus herb count). Arg(0) selects the backend so one binary
// reports scalar and SIMD side by side: 0 = scalar, 1 = dispatched.
void BM_KernelGemmF32(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const auto batch = static_cast<std::size_t>(state.range(1));
  const std::size_t d = 64, h = 753;
  const tensor::kernels::Backend& backend =
      dispatched ? tensor::kernels::Active() : tensor::kernels::ScalarBackend();
  Rng rng(8);
  std::vector<float> a(batch * d), bt(d * h), out(batch * h);
  for (auto& x : a) x = static_cast<float>(rng.Normal(0.0, 1.0));
  for (auto& x : bt) x = static_cast<float>(rng.Normal(0.0, 1.0));
  for (auto _ : state) {
    backend.gemm_f32(a.data(), bt.data(), batch, d, h, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(backend.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * d * h));
}
BENCHMARK(BM_KernelGemmF32)
    ->Args({0, 1})
    ->Args({0, 32})
    ->Args({0, 128})
    ->Args({1, 1})
    ->Args({1, 32})
    ->Args({1, 128});

void BM_KernelGemvF32(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const std::size_t d = 64, h = 753;
  const tensor::kernels::Backend& backend =
      dispatched ? tensor::kernels::Active() : tensor::kernels::ScalarBackend();
  Rng rng(9);
  std::vector<float> x(d), bt(d * h), out(h);
  for (auto& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
  for (auto& v : bt) v = static_cast<float>(rng.Normal(0.0, 1.0));
  for (auto _ : state) {
    backend.gemv_f32(x.data(), bt.data(), d, h, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(backend.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d * h));
}
BENCHMARK(BM_KernelGemvF32)->Arg(0)->Arg(1);

// int8 scoring micro-kernels at the same serving shape: s8 activations
// against the s8 transposed herb matrix with per-row f32 scales.
void BM_KernelGemmS8(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const auto batch = static_cast<std::size_t>(state.range(1));
  const std::size_t d = 64, h = 753;
  const tensor::kernels::Backend& backend =
      dispatched ? tensor::kernels::Active() : tensor::kernels::ScalarBackend();
  Rng rng(10);
  std::vector<std::int8_t> a(batch * d), bt(d * h);
  std::vector<float> a_scales(batch), col_scales(h), out(batch * h);
  for (auto& x : a) x = static_cast<std::int8_t>(rng.UniformInt(-127, 127));
  for (auto& x : bt) x = static_cast<std::int8_t>(rng.UniformInt(-127, 127));
  for (auto& s : a_scales) s = static_cast<float>(rng.Uniform(0.001, 0.05));
  for (auto& s : col_scales) s = static_cast<float>(rng.Uniform(0.001, 0.05));
  for (auto _ : state) {
    backend.gemm_s8(a.data(), bt.data(), batch, d, h, a_scales.data(),
                    col_scales.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(backend.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * d * h));
}
BENCHMARK(BM_KernelGemmS8)
    ->Args({0, 1})
    ->Args({0, 32})
    ->Args({0, 128})
    ->Args({1, 1})
    ->Args({1, 32})
    ->Args({1, 128});

void BM_KernelGemvS8(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const std::size_t d = 64, h = 753;
  const tensor::kernels::Backend& backend =
      dispatched ? tensor::kernels::Active() : tensor::kernels::ScalarBackend();
  Rng rng(11);
  std::vector<std::int8_t> x(d), bt(d * h);
  std::vector<float> col_scales(h), out(h);
  for (auto& v : x) v = static_cast<std::int8_t>(rng.UniformInt(-127, 127));
  for (auto& v : bt) v = static_cast<std::int8_t>(rng.UniformInt(-127, 127));
  for (auto& s : col_scales) s = static_cast<float>(rng.Uniform(0.001, 0.05));
  for (auto _ : state) {
    backend.gemv_s8(x.data(), bt.data(), d, h, 0.013f, col_scales.data(),
                    out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(backend.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d * h));
}
BENCHMARK(BM_KernelGemvS8)->Arg(0)->Arg(1);

// The f64 reference GEMM at the same serving shape (d = 64, H = 753):
// arg 0 selects scalar (0) or dispatched (1), arg 1 the batch.
void BM_KernelGemmF64(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const auto batch = static_cast<std::size_t>(state.range(1));
  const std::size_t d = 64, h = 753;
  const tensor::kernels::Backend& backend =
      dispatched ? tensor::kernels::Active() : tensor::kernels::ScalarBackend();
  Rng rng(12);
  std::vector<double> a(batch * d), bt(d * h), out(batch * h);
  for (auto& x : a) x = rng.Normal(0.0, 1.0);
  for (auto& x : bt) x = rng.Normal(0.0, 1.0);
  for (auto _ : state) {
    backend.gemm_f64(a.data(), bt.data(), batch, d, h, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(backend.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * d * h));
}
BENCHMARK(BM_KernelGemmF64)
    ->Args({0, 1})
    ->Args({0, 16})
    ->Args({0, 128})
    ->Args({1, 1})
    ->Args({1, 16})
    ->Args({1, 128});

// Top-20 of a 753-herb row (the real corpus herb count). Arg 0: random
// scores; arg 1: ascending scores, the worst case for a partial sort that
// admits every new element into its heap; arg 2: each iteration takes the
// next of 256 distinct random rows, so branch predictors cannot learn one
// row's outcomes as they do under args 0 and 1.
template <typename T>
void BM_TopK(benchmark::State& state) {
  constexpr std::size_t kHerbs = 753;
  const std::size_t num_rows = state.range(0) == 2 ? 256 : 1;
  Rng rng(7);
  std::vector<T> scores(num_rows * kHerbs);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = state.range(0) == 1 ? static_cast<T>(i)
                                    : static_cast<T>(rng.Uniform());
  }
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::TopK(scores.data() + row * kHerbs, kHerbs, 20));
    row = row + 1 == num_rows ? 0 : row + 1;
  }
  static constexpr const char* kLabels[] = {"random", "ascending",
                                            "varied rows"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK_TEMPLATE(BM_TopK, double)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_TEMPLATE(BM_TopK, float)->Arg(0)->Arg(1)->Arg(2);

void BM_GraphConstruction(benchmark::State& state) {
  data::TcmGeneratorConfig cfg;
  cfg.num_symptoms = 120;
  cfg.num_herbs = 220;
  cfg.num_syndromes = 18;
  cfg.num_prescriptions = 2000;
  data::TcmGenerator gen(cfg);
  auto corpus = gen.Generate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BuildTcmGraphs(*corpus, {20, 40}));
  }
}
BENCHMARK(BM_GraphConstruction);

void BM_PoolingCsrBuild(benchmark::State& state) {
  data::TcmGeneratorConfig cfg;
  cfg.num_prescriptions = 1000;
  data::TcmGenerator gen(cfg);
  auto corpus = gen.Generate();
  std::vector<std::size_t> batch(512);
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildSymptomPoolingCsr(*corpus, batch));
  }
}
BENCHMARK(BM_PoolingCsrBuild);

}  // namespace
}  // namespace smgcn

BENCHMARK_MAIN();
