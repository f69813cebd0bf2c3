#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <unordered_set>

#include "src/tensor/kernels.h"
#include "src/util/logging.h"

namespace smgcn {
namespace eval {

namespace {

// eval::TopK in four passes over one row, none with a data-dependent
// branch:
//   1. floor: the row's lane maxima (element i in lane i % lanes, lanes a
//      multiple of 8 above k) are `lanes` distinct elements, so their k-th
//      largest is a score at least k elements reach. Nothing below it can
//      rank in the top k.
//   2. filter: the indices of the scores at or above the floor, ascending
//      (NaN fails every comparison, so it never survives).
//   3. keys: each survivor's score as an order-preserving integer, -0
//      folded into +0, so selection compares integers, not floats.
//   4. rank: a survivor's rank is the number of greater keys, plus the
//      number of equal keys at lower indices; rank r < k puts it at
//      position r of the result.
// Passes 1 and 2 are the kernel backend's row scans. The rank is O(m^2) in
// the m survivors, so it runs only for small k and few survivors; larger
// selections sort the keys instead, and rows with fewer than k numbers
// end with their NaNs in index order.

/// Largest k served by the floor and the rank: ~k + 10 survivors on real
/// score rows, so the rank's m^2 compares stay below a sort's cost.
constexpr std::size_t kMaxRankedK = 64;
/// Largest survivor count the rank takes; more (heavy ties at the floor)
/// go to the sort.
constexpr std::size_t kMaxRankedSurvivors = 128;

/// Order-preserving signed key of a number: x < y exactly when
/// OrderKey(x) < OrderKey(y), and -0 and +0 share the key of +0. Never
/// called on NaN.
std::int64_t OrderKey(double x) {
  const double folded = x + 0.0;  // -0.0 + 0.0 == +0.0
  std::int64_t bits = 0;
  std::memcpy(&bits, &folded, sizeof bits);
  return bits ^ ((bits >> 63) & std::numeric_limits<std::int64_t>::max());
}

std::int32_t OrderKey(float x) {
  const float folded = x + 0.0f;
  std::int32_t bits = 0;
  std::memcpy(&bits, &folded, sizeof bits);
  return bits ^ ((bits >> 31) & std::numeric_limits<std::int32_t>::max());
}

/// Counts in the score's own width, so compare-and-count loops vectorize
/// lane for lane without widening.
template <typename T>
using Count = std::make_unsigned_t<decltype(OrderKey(T{}))>;

/// The k-th largest of the lane maxima: the largest maximum that at least
/// k maxima reach.
template <typename T>
T KthLargest(const T* maxima, std::size_t lanes, std::size_t k) {
  T floor = -std::numeric_limits<T>::infinity();
  for (std::size_t i = 0; i < lanes; ++i) {
    const T v = maxima[i];
    Count<T> reach = 0;
    for (std::size_t j = 0; j < lanes; ++j) reach += maxima[j] >= v;
    floor = reach >= k && v > floor ? v : floor;
  }
  return floor;
}

template <typename T>
std::vector<std::size_t> TopKImpl(const T* scores, std::size_t n,
                                  std::size_t k) {
  using Key = decltype(OrderKey(T{}));
  SMGCN_CHECK_LE(n, std::size_t{std::numeric_limits<std::uint32_t>::max()})
      << "TopK indexes rows with 32-bit positions";
  k = std::min(k, n);
  if (k == 0) return {};
  const tensor::kernels::Backend& kern = tensor::kernels::Active();
  // Per-thread scratch: after warm-up a call allocates only its result.
  static thread_local std::vector<T> maxima;
  static thread_local std::vector<std::uint32_t> survivors;
  static thread_local std::vector<Key> keys;
  static thread_local std::vector<std::uint32_t> order;
  static thread_local std::vector<Count<T>> tied;

  T floor = -std::numeric_limits<T>::infinity();
  if (k <= kMaxRankedK) {
    const std::size_t lanes = (k + 7) / 8 * 8 + 8;
    maxima.resize(lanes);
    if constexpr (std::is_same_v<T, float>) {
      kern.lane_max_f32(scores, n, lanes, maxima.data());
    } else {
      kern.lane_max_f64(scores, n, lanes, maxima.data());
    }
    floor = KthLargest(maxima.data(), lanes, k);
  }
  survivors.resize(n + 8);
  std::size_t m = 0;
  if constexpr (std::is_same_v<T, float>) {
    m = kern.select_ge_f32(scores, n, floor, survivors.data());
  } else {
    m = kern.select_ge_f64(scores, n, floor, survivors.data());
  }
  // Padded with the least key, which no number's key equals or falls
  // below, to a whole number of vectors: the rank's compare loop then has
  // one trip count per row and no remainder.
  const std::size_t padded = (m + 15) / 16 * 16;
  keys.resize(padded);
  for (std::size_t i = 0; i < m; ++i) keys[i] = OrderKey(scores[survivors[i]]);
  std::fill(keys.begin() + m, keys.end(), std::numeric_limits<Key>::min());

  // order[r] = the survivor (position in `survivors`) ranked r-th.
  const std::size_t ranked = std::min(k, m);
  order.resize(ranked + 1);
  const Key* key = keys.data();
  if (k <= kMaxRankedK && m <= kMaxRankedSurvivors) {
    // Survivors with equal keys count the same greater keys; taken in
    // index order, each adds the number of its equals already placed
    // (tied[greater]), so ties rank by index. Ranks past the result land
    // in the spare last slot.
    tied.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const Key ki = key[i];
      Count<T> greater = 0;
      for (std::size_t j = 0; j < padded; ++j) greater += key[j] > ki;
      const std::size_t rank = greater + tied[greater]++;
      order[std::min(rank, ranked)] = static_cast<std::uint32_t>(i);
    }
  } else {
    order.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    const auto ahead = [key](std::uint32_t a, std::uint32_t b) {
      return key[a] > key[b] || (key[a] == key[b] && a < b);
    };
    if (m > k) {
      std::nth_element(order.begin(), order.begin() + k, order.end(), ahead);
    }
    std::sort(order.begin(), order.begin() + ranked, ahead);
  }
  std::vector<std::size_t> top(k);
  for (std::size_t j = 0; j < ranked; ++j) top[j] = survivors[order[j]];
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
