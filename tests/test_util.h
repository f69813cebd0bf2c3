// Shared fixtures for tests: a small synthetic corpus and baseline scorers
// to compare trained models against, and a pin that holds a serving
// engine's drainers so async requests provably stay queued.
#ifndef SMGCN_TESTS_TEST_UTIL_H_
#define SMGCN_TESTS_TEST_UTIL_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/data/split.h"
#include "src/data/tcm_generator.h"
#include "src/eval/evaluator.h"
#include "src/serve/request.h"
#include "src/util/logging.h"

namespace smgcn {
namespace testutil {

/// A small but learnable corpus: trains any model here in a few seconds.
inline data::TcmGeneratorConfig SmallCorpusConfig() {
  data::TcmGeneratorConfig cfg;
  cfg.num_symptoms = 50;
  cfg.num_herbs = 80;
  cfg.num_syndromes = 8;
  cfg.num_prescriptions = 600;
  cfg.symptom_pool_size = 10;
  cfg.herb_pool_size = 12;
  // Soften global popularity so the popularity heuristic is beatable and
  // the learned structure dominates.
  cfg.herb_zipf = 0.4;
  cfg.base_herb_prob = 0.3;
  cfg.seed = 4242;
  return cfg;
}

/// Generates and splits the small corpus (deterministic).
inline data::TrainTestSplit SmallSplit() {
  data::TcmGenerator gen(SmallCorpusConfig());
  auto corpus = gen.Generate();
  SMGCN_CHECK(corpus.ok()) << corpus.status();
  Rng rng(1);
  auto split = data::SplitCorpus(*corpus, 0.85, &rng);
  SMGCN_CHECK(split.ok()) << split.status();
  return *std::move(split);
}

/// Recommends herbs by global training popularity — any learned model worth
/// its salt must beat this on recall@20.
inline eval::HerbScorer PopularityScorer(const data::Corpus& train) {
  std::vector<double> popularity;
  for (std::size_t f : train.HerbFrequencies()) {
    popularity.push_back(static_cast<double>(f));
  }
  return [popularity](const std::vector<int>&) { return popularity; };
}

/// Holds both drainer slots of a serving engine, so every request submitted
/// while the pin holds stays queued until Release(): admission, shedding and
/// swaps then act on a known queue instead of racing the drainers.
///
/// `submit(done)` must submit one ranked request that the engine scores and
/// hands to `done` (ServingEngine or ModelManager SubmitRequest). It is
/// called twice; the second call waits until the first request's callback
/// is running, so each pinned callback blocks its own drainer. The engine
/// needs at least two pool workers (ServingEngineOptions::num_threads >= 2),
/// or the second drainer never starts. Shutdown waits for the pinned
/// drainers, so a test that shuts down while pinned must Release from
/// another thread.
class DrainerPin {
 public:
  using Submit = std::function<void(std::function<void(serve::Response)>)>;

  explicit DrainerPin(const Submit& submit) : state_(std::make_shared<State>()) {
    for (int slot = 1; slot <= 2; ++slot) {
      submit([state = state_](serve::Response response) {
        std::unique_lock<std::mutex> lock(state->mu);
        ++state->entered;
        // A request rejected at admission is answered on the submitting
        // thread, which must not block; it just fails pinned().
        if (response.ok()) ++state->held;
        state->cv.notify_all();
        if (response.ok()) state->cv.wait(lock, [&] { return state->released; });
      });
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [&] { return state_->entered == slot; });
    }
  }
  ~DrainerPin() { Release(); }
  DrainerPin(const DrainerPin&) = delete;
  DrainerPin& operator=(const DrainerPin&) = delete;

  /// True when both drainers are held by a pinned callback.
  bool pinned() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->held == 2;
  }

  /// Lets the pinned callbacks return; the drainers then empty the queue.
  void Release() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int entered = 0;
    int held = 0;
    bool released = false;
  };
  std::shared_ptr<State> state_;
};

}  // namespace testutil
}  // namespace smgcn

#endif  // SMGCN_TESTS_TEST_UTIL_H_
