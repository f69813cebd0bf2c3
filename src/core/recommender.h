// The public model interface: every recommender in this library (SMGCN, its
// submodels, the GNN baselines and the topic-model baseline) trains on a
// prescription corpus and scores all herbs for a symptom set.
#ifndef SMGCN_CORE_RECOMMENDER_H_
#define SMGCN_CORE_RECOMMENDER_H_

#include <string>
#include <vector>

#include "src/data/prescription.h"
#include "src/eval/evaluator.h"
#include "src/util/status.h"

namespace smgcn {
namespace core {

/// Abstract herb recommender. Implementations must be deterministic given
/// their configured seed.
class HerbRecommender {
 public:
  virtual ~HerbRecommender() = default;

  /// Short model name used in reports ("SMGCN", "PinSage", ...).
  virtual std::string name() const = 0;

  /// Trains on `train`. Must be called before Score.
  virtual Status Fit(const data::Corpus& train) = 0;

  /// Scores every herb for the symptom set (higher = more recommended).
  /// Empty sets and out-of-range symptom ids yield InvalidArgument (never
  /// undefined behaviour); an untrained model returns FailedPrecondition.
  virtual Result<std::vector<double>> Score(
      const std::vector<int>& symptom_set) const = 0;

  /// Scores a batch of symptom sets by looping over Score. Fails on the
  /// first malformed query with its index prefixed to the error message.
  Result<std::vector<std::vector<double>>> ScoreBatch(
      const std::vector<std::vector<int>>& symptom_sets) const;

  /// Adapts the model to the evaluator's scorer signature. The model must
  /// be trained; scoring errors abort (they indicate bugs, not data issues).
  eval::HerbScorer AsScorer() const;

  /// Convenience: top-k herb ids for a symptom set.
  Result<std::vector<std::size_t>> Recommend(const std::vector<int>& symptom_set,
                                             std::size_t k) const;
};

}  // namespace core
}  // namespace smgcn

#endif  // SMGCN_CORE_RECOMMENDER_H_
