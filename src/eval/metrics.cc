#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace smgcn {
namespace eval {

namespace {

/// A score that can still reach the top k, carried with its index so the
/// selection compares scores without chasing indices back into the row.
template <typename T>
struct Candidate {
  T score;
  std::size_t index;
};

template <typename T>
std::vector<std::size_t> TopKImpl(const T* scores, std::size_t n,
                                  std::size_t k) {
  k = std::min(k, n);
  if (k == 0) return {};
  // Per-thread scratch: after warm-up a call allocates only its result.
  static thread_local std::vector<T> group_max;
  static thread_local std::vector<Candidate<T>> kept;

  // Bound the k-th best score from below in one pass. Element i belongs to
  // group i mod k; the k group maxima are k distinct elements, so the k-th
  // best score is at least the smallest of them, and nothing below that
  // floor can rank in the top k. NaN never raises a maximum, so the floor
  // is never NaN; a group of only NaN (or -inf) leaves it at -inf.
  group_max.assign(k, -std::numeric_limits<T>::infinity());
  T* maxima = group_max.data();
  for (std::size_t base = 0; base < n; base += k) {
    const T* row = scores + base;
    const std::size_t len = std::min(k, n - base);
    for (std::size_t g = 0; g < len; ++g) {
      maxima[g] = row[g] > maxima[g] ? row[g] : maxima[g];
    }
  }
  T floor = maxima[0];
  for (std::size_t g = 1; g < k; ++g) {
    floor = maxima[g] < floor ? maxima[g] : floor;
  }

  // Keep the numbers at or above the floor, branch-free. At least k survive
  // unless the floor is -inf, in which case every number does.
  kept.resize(n);
  Candidate<T>* out = kept.data();
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[survivors] = {scores[i], i};
    survivors += scores[i] >= floor;
  }

  // Exact selection and ordering over the survivors only: higher score
  // first, ties to the lower index.
  const auto ahead = [](const Candidate<T>& a, const Candidate<T>& b) {
    return a.score > b.score || (a.score == b.score && a.index < b.index);
  };
  const std::size_t ranked = std::min(k, survivors);
  if (survivors > k) std::nth_element(out, out + k, out + survivors, ahead);
  std::sort(out, out + ranked, ahead);
  std::vector<std::size_t> top(k);
  for (std::size_t j = 0; j < ranked; ++j) top[j] = out[j].index;
  // Fewer than k numbers in the row: NaNs fill the rest in index order.
  for (std::size_t i = 0, j = ranked; j < k && i < n; ++i) {
    if (std::isnan(scores[i])) top[j++] = i;
  }
  return top;
}

}  // namespace

std::vector<std::size_t> TopK(const float* scores, std::size_t n,
                              std::size_t k) {
  return TopKImpl(scores, n, k);
}

std::vector<std::size_t> TopK(const double* scores, std::size_t n,
                              std::size_t k) {
  return TopKImpl(scores, n, k);
}

std::vector<std::size_t> TopK(const std::vector<double>& scores, std::size_t k) {
  return TopK(scores.data(), scores.size(), k);
}

namespace {

std::unordered_set<std::size_t> ToSet(const std::vector<int>& relevant) {
  std::unordered_set<std::size_t> set;
  set.reserve(relevant.size());
  for (int id : relevant) {
    if (id >= 0) set.insert(static_cast<std::size_t>(id));
  }
  return set;
}

}  // namespace

double PrecisionAtK(const std::vector<std::size_t>& ranked,
                    const std::vector<int>& relevant, std::size_t k) {
  k = std::min(k, ranked.size());
  if (k == 0) return 0.0;
  const auto rel = ToSet(relevant);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < k; ++i) hits += rel.count(ranked[i]);
  return static_cast<double>(hits) / static_cast<double>(k);
}

double RecallAtK(const std::vector<std::size_t>& ranked,
                 const std::vector<int>& relevant, std::size_t k) {
  if (relevant.empty()) return 0.0;
  k = std::min(k, ranked.size());
  const auto rel = ToSet(relevant);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < k; ++i) hits += rel.count(ranked[i]);
  return static_cast<double>(hits) / static_cast<double>(rel.size());
}

double NdcgAtK(const std::vector<std::size_t>& ranked,
               const std::vector<int>& relevant, std::size_t k) {
  if (relevant.empty()) return 0.0;
  k = std::min(k, ranked.size());
  const auto rel = ToSet(relevant);
  double dcg = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (rel.count(ranked[i]) > 0) {
      dcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
    }
  }
  double idcg = 0.0;
  const std::size_t ideal_hits = std::min(k, rel.size());
  for (std::size_t i = 0; i < ideal_hits; ++i) {
    idcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
  }
  return idcg > 0.0 ? dcg / idcg : 0.0;
}

double AveragePrecisionAtK(const std::vector<std::size_t>& ranked,
                           const std::vector<int>& relevant, std::size_t k) {
  if (relevant.empty()) return 0.0;
  k = std::min(k, ranked.size());
  const auto rel = ToSet(relevant);
  double sum = 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (rel.count(ranked[i]) > 0) {
      ++hits;
      sum += static_cast<double>(hits) / static_cast<double>(i + 1);
    }
  }
  const std::size_t denom = std::min(k, rel.size());
  return denom > 0 ? sum / static_cast<double>(denom) : 0.0;
}

double HitRateAtK(const std::vector<std::size_t>& ranked,
                  const std::vector<int>& relevant, std::size_t k) {
  k = std::min(k, ranked.size());
  const auto rel = ToSet(relevant);
  for (std::size_t i = 0; i < k; ++i) {
    if (rel.count(ranked[i]) > 0) return 1.0;
  }
  return 0.0;
}

MetricsAtK ComputeMetricsAtK(const std::vector<std::size_t>& ranked,
                             const std::vector<int>& relevant, std::size_t k) {
  return MetricsAtK{PrecisionAtK(ranked, relevant, k),
                    RecallAtK(ranked, relevant, k), NdcgAtK(ranked, relevant, k)};
}

double CatalogCoverage(const std::vector<std::vector<std::size_t>>& top_k_lists,
                       std::size_t num_items) {
  if (num_items == 0) return 0.0;
  std::unordered_set<std::size_t> seen;
  for (const auto& list : top_k_lists) {
    for (const std::size_t item : list) {
      if (item < num_items) seen.insert(item);
    }
  }
  return static_cast<double>(seen.size()) / static_cast<double>(num_items);
}

}  // namespace eval
}  // namespace smgcn
