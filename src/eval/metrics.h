// Ranking metrics of the paper's evaluation (eqs. 16-18): Precision@K,
// Recall@K and NDCG@K over recommended herb lists.
#ifndef SMGCN_EVAL_METRICS_H_
#define SMGCN_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

namespace smgcn {
namespace eval {

/// Indices of the min(k, n) best of the `n` scores, best first. The order
/// is total, so the ids are deterministic for every input: a higher score
/// ranks first, any number ranks ahead of NaN, and ties (equal scores,
/// +0 and -0, or two NaNs) go to the lower index. The float form ranks
/// exactly as the widened double row would (widening is exact and keeps
/// order). Runs in two O(n) row scans on the kernel backend
/// (tensor/kernels.h) plus a branch-free rank of the few elements that can
/// reach the top k (a sort when k > 64), with no per-call allocation beyond
/// the result, whose capacity is exactly its size. n must fit in 32 bits.
std::vector<std::size_t> TopK(const float* scores, std::size_t n, std::size_t k);
std::vector<std::size_t> TopK(const double* scores, std::size_t n,
                              std::size_t k);
std::vector<std::size_t> TopK(const std::vector<double>& scores, std::size_t k);

/// Fraction of the top-K ranked items that are relevant. `ranked` must be
/// ordered by descending score; `relevant` is the ground-truth id set
/// (sorted or not). K = min(k, ranked.size()).
double PrecisionAtK(const std::vector<std::size_t>& ranked,
                    const std::vector<int>& relevant, std::size_t k);

/// Fraction of the relevant items contained in the top-K.
double RecallAtK(const std::vector<std::size_t>& ranked,
                 const std::vector<int>& relevant, std::size_t k);

/// DCG@K / IDCG@K with binary gains: hit at rank r (1-based) contributes
/// 1/log2(r+1); IDCG places all |relevant| hits first.
double NdcgAtK(const std::vector<std::size_t>& ranked,
               const std::vector<int>& relevant, std::size_t k);

/// Average precision at K: mean over relevant hits of precision at their
/// ranks, normalised by min(k, |relevant|). (MAP when averaged over a
/// test set.)
double AveragePrecisionAtK(const std::vector<std::size_t>& ranked,
                           const std::vector<int>& relevant, std::size_t k);

/// 1 when at least one relevant item appears in the top-K, else 0.
double HitRateAtK(const std::vector<std::size_t>& ranked,
                  const std::vector<int>& relevant, std::size_t k);

/// Metric triple at one cutoff.
struct MetricsAtK {
  double precision = 0.0;
  double recall = 0.0;
  double ndcg = 0.0;
};

/// Computes all three metrics at the given cutoff.
MetricsAtK ComputeMetricsAtK(const std::vector<std::size_t>& ranked,
                             const std::vector<int>& relevant, std::size_t k);

/// Catalogue coverage: fraction of the `num_items` catalogue that appears
/// in at least one of the given top-K lists. Measures recommendation
/// diversity across a test set (not in the paper; standard recsys
/// diagnostics for production use).
double CatalogCoverage(const std::vector<std::vector<std::size_t>>& top_k_lists,
                       std::size_t num_items);

}  // namespace eval
}  // namespace smgcn

#endif  // SMGCN_EVAL_METRICS_H_
