// Property-based tests: parameterised sweeps asserting algebraic and
// metric invariants over many random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "src/autograd/ops.h"
#include "src/core/checkpoint.h"
#include "src/data/corpus_io.h"
#include "src/eval/metrics.h"
#include "src/graph/csr_matrix.h"
#include "src/nn/loss.h"
#include "src/tensor/kernels.h"
#include "src/tensor/matrix.h"
#include "src/util/random.h"

namespace smgcn {
namespace {

using autograd::MakeVariable;
using autograd::Variable;
using tensor::Matrix;

// --------------------------------------------------------------------------
// Matrix algebra identities over random seeds
// --------------------------------------------------------------------------

class MatrixAlgebraProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixAlgebraProperty, TransposeOfProduct) {
  Rng rng(GetParam());
  const Matrix a = Matrix::RandomNormal(4, 6, 0.0, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(6, 3, 0.0, 1.0, &rng);
  // (AB)^T == B^T A^T
  EXPECT_LT(a.MatMul(b).Transpose().MaxAbsDiff(
                b.Transpose().MatMul(a.Transpose())),
            1e-12);
}

TEST_P(MatrixAlgebraProperty, Distributivity) {
  Rng rng(GetParam() + 1000);
  const Matrix a = Matrix::RandomNormal(3, 5, 0.0, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(5, 4, 0.0, 1.0, &rng);
  const Matrix c = Matrix::RandomNormal(5, 4, 0.0, 1.0, &rng);
  // A(B + C) == AB + AC
  EXPECT_LT(a.MatMul(b.Add(c)).MaxAbsDiff(a.MatMul(b).Add(a.MatMul(c))), 1e-11);
}

TEST_P(MatrixAlgebraProperty, SparseDenseAgreement) {
  Rng rng(GetParam() + 2000);
  Matrix dense = Matrix::RandomNormal(8, 6, 0.0, 1.0, &rng);
  dense.Apply([](double v) { return std::fabs(v) < 0.8 ? 0.0 : v; });
  const graph::CsrMatrix sparse = graph::CsrMatrix::FromDense(dense);
  const Matrix x = Matrix::RandomNormal(6, 5, 0.0, 1.0, &rng);
  EXPECT_LT(sparse.Multiply(x).MaxAbsDiff(dense.MatMul(x)), 1e-12);
  const Matrix y = Matrix::RandomNormal(8, 5, 0.0, 1.0, &rng);
  EXPECT_LT(sparse.TransposeMultiply(y).MaxAbsDiff(dense.Transpose().MatMul(y)),
            1e-12);
}

TEST_P(MatrixAlgebraProperty, NormAndDotConsistency) {
  Rng rng(GetParam() + 3000);
  const Matrix a = Matrix::RandomNormal(5, 5, 0.0, 2.0, &rng);
  EXPECT_NEAR(a.Dot(a), a.SquaredNorm(), 1e-9);
  EXPECT_NEAR(a.Norm() * a.Norm(), a.SquaredNorm(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixAlgebraProperty,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --------------------------------------------------------------------------
// Composite autograd gradient checks over random seeds and shapes
// --------------------------------------------------------------------------

struct GradCase {
  std::uint64_t seed;
  std::size_t rows;
  std::size_t inner;
  std::size_t cols;
};

class CompositeGradientProperty : public testing::TestWithParam<GradCase> {};

TEST_P(CompositeGradientProperty, TwoLayerNetworkGradientsMatchNumeric) {
  const GradCase& tc = GetParam();
  Rng rng(tc.seed);
  auto x = MakeVariable(Matrix::RandomNormal(tc.rows, tc.inner, 0.0, 1.0, &rng), true);
  auto w1 = MakeVariable(Matrix::RandomNormal(tc.inner, tc.cols, 0.0, 1.0, &rng), true);
  auto w2 = MakeVariable(Matrix::RandomNormal(tc.rows, tc.cols, 0.0, 1.0, &rng), true);

  auto build = [&] {
    Variable h = autograd::Tanh(autograd::MatMul(x, w1));
    Variable y = autograd::MatMulTransposed(h, w2);  // rows x rows
    return autograd::Add(autograd::Sum(autograd::Sigmoid(y)),
                         autograd::Scale(autograd::SquaredNorm(w1), 0.05));
  };

  for (const Variable& leaf : {x, w1, w2}) leaf->ZeroGrad();
  autograd::Backward(build());
  const Matrix gx = x->grad();

  const double h = 1e-5;
  // Spot-check a handful of entries of x's gradient.
  Rng pick(tc.seed + 99);
  for (int trial = 0; trial < 6; ++trial) {
    const auto r = static_cast<std::size_t>(
        pick.UniformInt(0, static_cast<std::int64_t>(tc.rows) - 1));
    const auto c = static_cast<std::size_t>(
        pick.UniformInt(0, static_cast<std::int64_t>(tc.inner) - 1));
    const double orig = x->mutable_value()(r, c);
    x->mutable_value()(r, c) = orig + h;
    const double up = build()->value()(0, 0);
    x->mutable_value()(r, c) = orig - h;
    const double down = build()->value()(0, 0);
    x->mutable_value()(r, c) = orig;
    EXPECT_NEAR(gx(r, c), (up - down) / (2.0 * h), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, CompositeGradientProperty,
    testing::Values(GradCase{1, 3, 4, 5}, GradCase{2, 5, 2, 3},
                    GradCase{3, 2, 6, 2}, GradCase{4, 4, 4, 4},
                    GradCase{5, 6, 3, 7}));

// --------------------------------------------------------------------------
// Metric invariants over random rankings
// --------------------------------------------------------------------------

class MetricProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricProperty, RangesAndMonotonicity) {
  Rng rng(GetParam());
  // Random scores over 50 herbs, random relevant set.
  std::vector<double> scores(50);
  for (double& s : scores) s = rng.Uniform();
  std::vector<int> relevant;
  for (int h = 0; h < 50; ++h) {
    if (rng.Bernoulli(0.15)) relevant.push_back(h);
  }
  if (relevant.empty()) relevant.push_back(7);

  const auto ranked = eval::TopK(scores, 50);
  double prev_recall = 0.0;
  for (const std::size_t k : {1u, 3u, 5u, 10u, 20u, 50u}) {
    const auto m = eval::ComputeMetricsAtK(ranked, relevant, k);
    EXPECT_GE(m.precision, 0.0);
    EXPECT_LE(m.precision, 1.0);
    EXPECT_GE(m.recall, prev_recall);  // recall monotone in k
    EXPECT_LE(m.recall, 1.0);
    EXPECT_GE(m.ndcg, 0.0);
    EXPECT_LE(m.ndcg, 1.0 + 1e-12);
    // p@k * k is an integer hit count.
    const double hits = m.precision * static_cast<double>(k);
    EXPECT_NEAR(hits, std::round(hits), 1e-9);
    prev_recall = m.recall;
  }
  // Full-list recall is 1.
  EXPECT_NEAR(eval::RecallAtK(ranked, relevant, 50), 1.0, 1e-12);
}

TEST_P(MetricProperty, TopKIsSortedAndDistinct) {
  Rng rng(GetParam() + 500);
  std::vector<double> scores(30);
  for (double& s : scores) s = rng.Uniform();
  const auto ranked = eval::TopK(scores, 10);
  ASSERT_EQ(ranked.size(), 10u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(scores[ranked[i - 1]], scores[ranked[i]]);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(ranked[i], ranked[j]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty,
                         testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --------------------------------------------------------------------------
// TopK against a full stable sort
// --------------------------------------------------------------------------

// The reference ranking: every index, stable-sorted best first (NaN after
// every number), so equal scores keep ascending index order.
template <typename T>
std::vector<std::size_t> StableSortTopK(const std::vector<T>& scores,
                                        std::size_t k) {
  std::vector<std::size_t> idx(scores.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (std::isnan(scores[a])) return false;
    return std::isnan(scores[b]) || scores[a] > scores[b];
  });
  idx.resize(std::min(k, idx.size()));
  return idx;
}

enum class RowShape {
  kRandom,
  kAscending,
  kDescending,
  kAllTied,
  kEightLevels,
  kSomeNan,
};

template <typename T>
std::vector<T> MakeRow(RowShape shape, std::size_t n, Rng* rng) {
  std::vector<T> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    switch (shape) {
      case RowShape::kRandom:
        row[i] = static_cast<T>(rng->Normal(0.0, 1.0));
        break;
      case RowShape::kAscending:
        row[i] = static_cast<T>(x);
        break;
      case RowShape::kDescending:
        row[i] = static_cast<T>(-x);
        break;
      case RowShape::kAllTied:
        row[i] = static_cast<T>(0.5);
        break;
      case RowShape::kEightLevels:
        row[i] = static_cast<T>(rng->UniformInt(0, 7));
        break;
      case RowShape::kSomeNan:
        row[i] = rng->Bernoulli(0.2) ? std::numeric_limits<T>::quiet_NaN()
                                     : static_cast<T>(rng->UniformInt(0, 7));
        break;
    }
  }
  return row;
}

template <typename T>
void CheckTopKAgainstStableSort(std::uint64_t seed) {
  Rng rng(seed);
  for (const std::size_t n : {1u, 2u, 3u, 753u, 4096u}) {
    for (const RowShape shape :
         {RowShape::kRandom, RowShape::kAscending, RowShape::kDescending,
          RowShape::kAllTied, RowShape::kEightLevels, RowShape::kSomeNan}) {
      const std::vector<T> row = MakeRow<T>(shape, n, &rng);
      for (const std::size_t k :
           {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{20},
            n / 2, n / 2 + 1, n, n + 7}) {
        const std::vector<std::size_t> got = eval::TopK(row.data(), n, k);
        ASSERT_EQ(got, StableSortTopK(row, k))
            << "n=" << n << " k=" << k << " shape=" << static_cast<int>(shape);
      }
    }
  }
}

class TopKProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TopKProperty, DoubleRowsMatchStableSort) {
  CheckTopKAgainstStableSort<double>(GetParam());
}

TEST_P(TopKProperty, FloatRowsMatchStableSort) {
  CheckTopKAgainstStableSort<float>(GetParam() + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty, testing::Values(3, 17, 29));

// The same stable-sort oracle over every short row length, the real herb
// count and the k values around each SIMD width, on rows built from heavy
// ties and the special values (NaN, +-inf, +-0), under both kernel
// dispatch outcomes: the scalar backend's scans are the reference the
// dispatched ones must reproduce.
template <typename T>
std::vector<T> MakeEdgeRow(int shape, std::size_t n, Rng* rng) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  const T special[] = {nan, inf, -inf, T(0.0), T(-0.0), T(1.0), T(-1.0)};
  std::vector<T> row(n);
  for (T& v : row) {
    switch (shape) {
      case 0:  // distinct-ish numbers
        v = static_cast<T>(rng->Normal(0.0, 1.0));
        break;
      case 1:  // three tied levels
        v = static_cast<T>(rng->UniformInt(-1, 1));
        break;
      case 2:  // only the special values
        v = special[rng->UniformInt(0, 6)];
        break;
      case 3:  // mostly NaN
        v = rng->Bernoulli(0.8) ? nan : static_cast<T>(rng->Normal(0.0, 1.0));
        break;
      default:  // signed zeros and infinities among numbers
        v = rng->Bernoulli(0.5) ? special[rng->UniformInt(1, 4)]
                                : static_cast<T>(rng->Normal(0.0, 1.0));
        break;
    }
  }
  return row;
}

template <typename T>
void CheckTopKEdgeCases(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(753);
  for (const std::size_t n : lengths) {
    for (int shape = 0; shape < 5; ++shape) {
      const std::vector<T> row = MakeEdgeRow<T>(shape, n, &rng);
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
            std::size_t{20}, std::size_t{33}, n - 1, n, n + 5}) {
        const std::vector<std::size_t> got = eval::TopK(row.data(), n, k);
        ASSERT_EQ(got, StableSortTopK(row, k))
            << "n=" << n << " k=" << k << " shape=" << shape
            << " backend=" << tensor::kernels::ActiveName();
        ASSERT_EQ(got.capacity(), got.size());
      }
    }
  }
}

class TopKDispatchProperty : public testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    previous_ = tensor::kernels::ScalarForced();
    tensor::kernels::ForceScalar(GetParam());
  }
  void TearDown() override { tensor::kernels::ForceScalar(previous_); }

 private:
  bool previous_ = false;
};

TEST_P(TopKDispatchProperty, DoubleEdgeRowsMatchStableSort) {
  CheckTopKEdgeCases<double>(41);
}

TEST_P(TopKDispatchProperty, FloatEdgeRowsMatchStableSort) {
  CheckTopKEdgeCases<float>(43);
}

INSTANTIATE_TEST_SUITE_P(Backends, TopKDispatchProperty,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcedScalar" : "Dispatched";
                         });

// --------------------------------------------------------------------------
// Loss invariants over random instances
// --------------------------------------------------------------------------

class LossProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(LossProperty, WeightedMseIsNonNegativeAndZeroAtTarget) {
  Rng rng(GetParam());
  const Matrix targets = Matrix::RandomUniform(4, 6, 0.0, 1.0, &rng)
                             .Map([](double v) { return v > 0.7 ? 1.0 : 0.0; });
  std::vector<double> weights(6);
  for (double& w : weights) w = rng.Uniform(0.5, 5.0);

  auto scores = MakeVariable(Matrix::RandomNormal(4, 6, 0.0, 1.0, &rng), true);
  EXPECT_GE(nn::WeightedMseLoss(scores, targets, weights)->value()(0, 0), 0.0);

  auto perfect = MakeVariable(targets, true);
  EXPECT_NEAR(nn::WeightedMseLoss(perfect, targets, weights)->value()(0, 0), 0.0,
              1e-15);
}

TEST_P(LossProperty, BprLossPositiveAndShrinksWithGap) {
  Rng rng(GetParam() + 100);
  auto scores = MakeVariable(Matrix::RandomNormal(3, 8, 0.0, 1.0, &rng), true);
  std::vector<nn::BprTriple> triples{{0, 1, 2}, {1, 3, 4}, {2, 5, 6}};
  const double base = nn::BprLoss(scores, triples)->value()(0, 0);
  EXPECT_GT(base, 0.0);
  // Boosting every positive must reduce the loss.
  for (const auto& t : triples) scores->mutable_value()(t.row, t.positive) += 2.0;
  EXPECT_LT(nn::BprLoss(scores, triples)->value()(0, 0), base);
}

TEST_P(LossProperty, InverseFrequencyWeightsInvariants) {
  Rng rng(GetParam() + 200);
  std::vector<std::size_t> freq(20);
  for (auto& f : freq) f = static_cast<std::size_t>(rng.UniformInt(0, 50));
  const auto weights = nn::InverseFrequencyWeights(freq);
  std::size_t max_freq = 0;
  for (std::size_t f : freq) max_freq = std::max(max_freq, f);
  for (std::size_t i = 0; i < freq.size(); ++i) {
    EXPECT_GE(weights[i], 1.0 - 1e-12);
    if (freq[i] == max_freq && max_freq > 0) {
      EXPECT_NEAR(weights[i], 1.0, 1e-12);  // most frequent herb has weight 1
    }
    // Rarer herbs never get smaller weights.
    for (std::size_t j = 0; j < freq.size(); ++j) {
      if (freq[i] > 0 && freq[j] > 0 && freq[i] <= freq[j]) {
        EXPECT_GE(weights[i] + 1e-12, weights[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossProperty, testing::Values(3, 6, 9, 12, 15));

// --------------------------------------------------------------------------
// CSR round-trip property
// --------------------------------------------------------------------------

class CsrProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrProperty, DenseSparseDenseRoundTrip) {
  Rng rng(GetParam());
  Matrix dense = Matrix::RandomNormal(10, 7, 0.0, 1.0, &rng);
  dense.Apply([](double v) { return std::fabs(v) < 1.0 ? 0.0 : v; });
  const auto sparse = graph::CsrMatrix::FromDense(dense);
  EXPECT_LT(sparse.ToDense().MaxAbsDiff(dense), 1e-15);
  EXPECT_LT(sparse.Transpose().Transpose().ToDense().MaxAbsDiff(dense), 1e-15);
}

TEST_P(CsrProperty, RowNormalizedIsStochasticWhereNonEmpty) {
  Rng rng(GetParam() + 50);
  Matrix dense = Matrix::RandomUniform(8, 8, 0.0, 1.0, &rng)
                     .Map([](double v) { return v > 0.6 ? 1.0 : 0.0; });
  const auto sparse = graph::CsrMatrix::FromDense(dense);
  const auto sums = sparse.RowNormalized().RowSums();
  for (std::size_t r = 0; r < 8; ++r) {
    if (sparse.RowNnz(r) > 0) {
      EXPECT_NEAR(sums[r], 1.0, 1e-12);
    } else {
      EXPECT_DOUBLE_EQ(sums[r], 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrProperty, testing::Values(7, 14, 28, 56));

// --------------------------------------------------------------------------
// Corpus IO round-trip over random corpora
// --------------------------------------------------------------------------

class CorpusIoProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CorpusIoProperty, SerializeParseRoundTripPreservesEverything) {
  Rng rng(GetParam());
  data::Corpus corpus(data::Vocabulary::Synthetic(20, "s"),
                      data::Vocabulary::Synthetic(30, "h"), {});
  const int n = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < n; ++i) {
    data::Prescription p;
    const int n_s = static_cast<int>(rng.UniformInt(1, 6));
    const int n_h = static_cast<int>(rng.UniformInt(1, 8));
    for (int j = 0; j < n_s; ++j) {
      p.symptoms.push_back(static_cast<int>(rng.UniformInt(0, 19)));
    }
    for (int j = 0; j < n_h; ++j) {
      p.herbs.push_back(static_cast<int>(rng.UniformInt(0, 29)));
    }
    ASSERT_TRUE(corpus.Add(std::move(p)).ok());
  }

  // Round-trip against the original vocabularies: ids must be identical.
  auto restored =
      data::ParseCorpus(data::SerializeCorpus(corpus), &corpus);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(restored->at(i), corpus.at(i));
  }
  EXPECT_EQ(restored->HerbFrequencies(), corpus.HerbFrequencies());
  EXPECT_EQ(restored->SymptomFrequencies(), corpus.SymptomFrequencies());
}

TEST_P(CorpusIoProperty, FreeParseIsNameEquivalent) {
  Rng rng(GetParam() + 77);
  data::Corpus corpus(data::Vocabulary::Synthetic(10, "s"),
                      data::Vocabulary::Synthetic(12, "h"), {});
  for (int i = 0; i < 15; ++i) {
    data::Prescription p;
    p.symptoms = {static_cast<int>(rng.UniformInt(0, 9))};
    p.herbs = {static_cast<int>(rng.UniformInt(0, 11)),
               static_cast<int>(rng.UniformInt(0, 11))};
    ASSERT_TRUE(corpus.Add(std::move(p)).ok());
  }
  // Parsing without fixed vocabularies renumbers ids (and renormalisation
  // may reorder members), but the *name set* of every prescription must
  // survive.
  auto restored = data::ParseCorpus(data::SerializeCorpus(corpus));
  ASSERT_TRUE(restored.ok());
  auto name_set = [](const data::Corpus& c, const std::vector<int>& herbs) {
    std::set<std::string> names;
    for (int h : herbs) names.insert(c.herb_vocab().Name(h));
    return names;
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(name_set(corpus, corpus.at(i).herbs),
              name_set(*restored, restored->at(i).herbs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusIoProperty, testing::Values(2, 4, 8, 16, 32));

// --------------------------------------------------------------------------
// Checkpoint round-trip over random shapes
// --------------------------------------------------------------------------

class CheckpointProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointProperty, InferenceCheckpointSurvivesSerialization) {
  Rng rng(GetParam());
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "prop";
  const auto rows_s = static_cast<std::size_t>(rng.UniformInt(1, 12));
  const auto rows_h = static_cast<std::size_t>(rng.UniformInt(1, 12));
  const auto dim = static_cast<std::size_t>(rng.UniformInt(1, 9));
  ckpt.symptom_embeddings = Matrix::RandomNormal(rows_s, dim, 0.0, 2.0, &rng);
  ckpt.herb_embeddings = Matrix::RandomNormal(rows_h, dim, 0.0, 2.0, &rng);
  if (rng.Bernoulli(0.5)) {
    ckpt.has_si_mlp = true;
    ckpt.si_weight = Matrix::RandomNormal(dim, dim, 0.0, 1.0, &rng);
    ckpt.si_bias = Matrix::RandomNormal(1, dim, 0.0, 1.0, &rng);
  }
  const std::string path = testing::TempDir() + "/smgcn_prop_" +
                           std::to_string(GetParam()) + ".ckpt";
  ASSERT_TRUE(core::SaveInferenceCheckpoint(ckpt, path).ok());
  auto restored = core::LoadInferenceCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->symptom_embeddings, ckpt.symptom_embeddings);
  EXPECT_EQ(restored->herb_embeddings, ckpt.herb_embeddings);
  EXPECT_EQ(restored->has_si_mlp, ckpt.has_si_mlp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProperty,
                         testing::Values(10, 20, 30, 40, 50, 60));

}  // namespace
}  // namespace smgcn
