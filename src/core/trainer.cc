#include "src/core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/core/train_telemetry.h"
#include "src/nn/optimizer.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace core {

tensor::Matrix BuildTargetMatrix(const data::Corpus& corpus,
                                 const std::vector<std::size_t>& indices) {
  tensor::Matrix targets(indices.size(), corpus.num_herbs(), 0.0);
  // Each batch row is filled from its own prescription only, so the
  // partition is race-free and order-independent.
  parallel::ParallelFor(
      0, indices.size(), 64,
      [&corpus, &indices, &targets](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          for (int h : corpus.at(indices[b]).herbs) {
            targets(b, static_cast<std::size_t>(h)) = 1.0;
          }
        }
      });
  return targets;
}

graph::CsrMatrix BuildSymptomPoolingCsr(const data::Corpus& corpus,
                                        const std::vector<std::size_t>& indices) {
  std::vector<graph::Triplet> triplets;
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const auto& symptoms = corpus.at(indices[b]).symptoms;
    const double w = 1.0 / static_cast<double>(symptoms.size());
    for (int s : symptoms) {
      triplets.push_back({b, static_cast<std::size_t>(s), w});
    }
  }
  return graph::CsrMatrix::FromTriplets(indices.size(), corpus.num_symptoms(),
                                        std::move(triplets));
}

std::vector<nn::BprTriple> SampleBprTriples(const data::Corpus& corpus,
                                            const std::vector<std::size_t>& indices,
                                            std::size_t negatives, Rng* rng) {
  std::vector<nn::BprTriple> triples;
  const auto num_herbs = static_cast<std::int64_t>(corpus.num_herbs());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const data::Prescription& p = corpus.at(indices[b]);
    if (static_cast<std::int64_t>(p.herbs.size()) >= num_herbs) continue;
    for (int pos : p.herbs) {
      for (std::size_t k = 0; k < negatives; ++k) {
        // Rejection sampling; herb sets are tiny relative to the vocabulary.
        std::size_t neg;
        do {
          neg = static_cast<std::size_t>(rng->UniformInt(0, num_herbs - 1));
        } while (std::binary_search(p.herbs.begin(), p.herbs.end(),
                                    static_cast<int>(neg)));
        triples.push_back({b, static_cast<std::size_t>(pos), neg});
      }
    }
  }
  return triples;
}

namespace {

/// Builds the configured data loss for one batch.
Result<autograd::Variable> MakeDataLoss(const data::Corpus& train,
                                        const TrainConfig& config,
                                        const std::vector<std::size_t>& batch,
                                        const std::vector<double>& herb_weights,
                                        const autograd::Variable& scores, Rng* rng) {
  if (config.loss == LossKind::kMultiLabel) {
    return nn::WeightedMseLoss(scores, BuildTargetMatrix(train, batch),
                               herb_weights);
  }
  const auto triples = SampleBprTriples(train, batch, config.bpr_negatives, rng);
  if (triples.empty()) {
    return Status::Internal("no BPR triples could be sampled");
  }
  return nn::BprLoss(scores, triples);
}

/// Mean held-out data loss with dropout off; no gradients are consumed.
Result<double> ValidationLoss(const data::Corpus& train, const TrainConfig& config,
                              const std::vector<std::size_t>& val_indices,
                              const std::vector<double>& herb_weights,
                              const ForwardFn& forward, Rng* rng) {
  double total = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < val_indices.size();
       start += config.batch_size) {
    const std::size_t end =
        std::min(val_indices.size(), start + config.batch_size);
    const std::vector<std::size_t> batch(
        val_indices.begin() + static_cast<std::ptrdiff_t>(start),
        val_indices.begin() + static_cast<std::ptrdiff_t>(end));
    autograd::Variable scores = forward(batch, /*training=*/false);
    if (scores == nullptr) return Status::Internal("forward returned null");
    ASSIGN_OR_RETURN(autograd::Variable loss,
                     MakeDataLoss(train, config, batch, herb_weights, scores, rng));
    total += loss->value()(0, 0);
    ++batches;
  }
  if (batches == 0) return Status::Internal("empty validation set");
  return total / static_cast<double>(batches);
}

std::vector<tensor::Matrix> SnapshotParameters(const nn::ParameterStore& store) {
  std::vector<tensor::Matrix> snapshot;
  snapshot.reserve(store.size());
  for (const auto& p : store.parameters()) snapshot.push_back(p->value());
  return snapshot;
}

void RestoreParameters(const std::vector<tensor::Matrix>& snapshot,
                       nn::ParameterStore* store) {
  // Only parameters that existed at snapshot time are restored; any created
  // afterwards keep their current values.
  for (std::size_t i = 0; i < snapshot.size() && i < store->size(); ++i) {
    store->parameters()[i]->mutable_value() = snapshot[i];
  }
}

/// Name of the first parameter holding a non-finite value, or "" when all
/// are finite. Used to make divergence errors actionable.
std::string FirstNonFiniteParameter(const nn::ParameterStore& store) {
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (!store.parameters()[i]->value().AllFinite()) return store.names()[i];
  }
  return "";
}

}  // namespace

Result<TrainSummary> TrainModel(const data::Corpus& train, const TrainConfig& config,
                                nn::ParameterStore* store, const ForwardFn& forward,
                                TrainTelemetry* telemetry) {
  RETURN_IF_ERROR(config.Validate());
  if (train.empty()) {
    return Status::FailedPrecondition("cannot train on an empty corpus");
  }
  if (store == nullptr || store->size() == 0) {
    return Status::FailedPrecondition("parameter store is empty");
  }

  const std::vector<double> herb_weights =
      nn::InverseFrequencyWeights(train.HerbFrequencies());

  Rng rng(config.seed);
  nn::Adam optimizer(store, config.learning_rate);

  // Trainer span hierarchy (run > epoch > batch > forward/backward) plus
  // step counting, recorded into the process-wide registry. Instruments are
  // resolved once here so the per-batch cost is two clock reads per span.
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram* run_span_sink =
      reg.GetHistogram(obs::SpanHistogramName("train.run"));
  obs::Histogram* epoch_span_sink =
      reg.GetHistogram(obs::SpanHistogramName("train.epoch"));
  obs::Histogram* batch_span_sink =
      reg.GetHistogram(obs::SpanHistogramName("train.batch"));
  obs::Histogram* forward_span_sink =
      reg.GetHistogram(obs::SpanHistogramName("train.forward"));
  obs::Histogram* backward_span_sink =
      reg.GetHistogram(obs::SpanHistogramName("train.backward"));
  obs::Histogram* validation_span_sink =
      reg.GetHistogram(obs::SpanHistogramName("train.validation"));
  obs::Counter* steps_counter = reg.GetCounter("train.steps");
  obs::Counter* epochs_counter = reg.GetCounter("train.epochs");
  // Trace name ids interned once alongside the sinks; when tracing is off
  // the per-span cost is a single relaxed load.
  obs::trace::TraceBuffer& tracer = obs::trace::TraceBuffer::Global();
  const std::uint32_t run_trace_id = tracer.InternName("train.run");
  const std::uint32_t epoch_trace_id = tracer.InternName("train.epoch");
  const std::uint32_t batch_trace_id = tracer.InternName("train.batch");
  const std::uint32_t forward_trace_id = tracer.InternName("train.forward");
  const std::uint32_t backward_trace_id = tracer.InternName("train.backward");
  const std::uint32_t validation_trace_id =
      tracer.InternName("train.validation");
  obs::ScopedSpan run_span(run_span_sink, run_trace_id);

  // Optional validation holdout for early stopping.
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> val_indices;
  if (config.validation_fraction > 0.0) {
    rng.Shuffle(&order);
    auto n_val = static_cast<std::size_t>(config.validation_fraction *
                                          static_cast<double>(order.size()));
    n_val = std::max<std::size_t>(1, std::min(n_val, order.size() - 1));
    val_indices.assign(order.end() - static_cast<std::ptrdiff_t>(n_val), order.end());
    order.resize(order.size() - n_val);
  }

  TrainSummary summary;
  summary.epoch_losses.reserve(config.epochs);
  double best_val_loss = std::numeric_limits<double>::infinity();
  std::size_t epochs_since_best = 0;
  std::vector<tensor::Matrix> best_snapshot;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span(epoch_span_sink, epoch_trace_id);
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < order.size(); start += config.batch_size) {
      const std::size_t end = std::min(order.size(), start + config.batch_size);
      const std::vector<std::size_t> batch(
          order.begin() + static_cast<std::ptrdiff_t>(start),
          order.begin() + static_cast<std::ptrdiff_t>(end));

      obs::ScopedSpan batch_span(batch_span_sink, batch_trace_id);
      store->ZeroGrad();
      obs::ScopedSpan forward_span(forward_span_sink, forward_trace_id);
      autograd::Variable scores = forward(batch, /*training=*/true);
      forward_span.Stop();
      if (scores == nullptr) {
        return Status::Internal("forward function returned null scores");
      }
      if (scores->value().rows() != batch.size() ||
          scores->value().cols() != train.num_herbs()) {
        return Status::Internal(StrFormat(
            "forward returned %zu x %zu scores, expected %zu x %zu",
            scores->value().rows(), scores->value().cols(), batch.size(),
            train.num_herbs()));
      }

      ASSIGN_OR_RETURN(
          autograd::Variable data_loss,
          MakeDataLoss(train, config, batch, herb_weights, scores, &rng));

      autograd::Variable loss =
          config.l2_lambda > 0.0
              ? autograd::Add(data_loss,
                              nn::L2Penalty(store->parameters(), config.l2_lambda))
              : data_loss;

      const double loss_value = loss->value()(0, 0);
      if (!std::isfinite(loss_value)) {
        const std::string what = StrFormat(
            "non-finite loss %g at epoch %zu step %zu (diverged; lower the "
            "learning rate)",
            loss_value, epoch, summary.steps);
        if (telemetry != nullptr) {
          telemetry->OnDivergence(epoch + 1, summary.steps, what);
        }
        return Status::Internal(what);
      }

      {
        obs::ScopedSpan backward_span(backward_span_sink, backward_trace_id);
        autograd::Backward(loss);
      }
      optimizer.Step();
      steps_counter->Increment();
      ++summary.steps;
      epoch_loss += loss_value;
      ++batches;
    }
    epochs_counter->Increment();

    if (!store->AllFinite()) {
      const std::string what = StrFormat(
          "parameter '%s' diverged to non-finite values at epoch %zu",
          FirstNonFiniteParameter(*store).c_str(), epoch);
      if (telemetry != nullptr) {
        telemetry->OnDivergence(epoch + 1, summary.steps, what);
      }
      return Status::Internal(what);
    }
    epoch_loss /= static_cast<double>(batches);
    summary.epoch_losses.push_back(epoch_loss);
    summary.best_epoch = epoch + 1;

    bool stop_early = false;
    if (!val_indices.empty()) {
      obs::ScopedSpan validation_span(validation_span_sink, validation_trace_id);
      ASSIGN_OR_RETURN(
          const double val_loss,
          ValidationLoss(train, config, val_indices, herb_weights, forward, &rng));
      summary.validation_losses.push_back(val_loss);
      if (val_loss < best_val_loss) {
        best_val_loss = val_loss;
        epochs_since_best = 0;
        best_snapshot = SnapshotParameters(*store);
        summary.best_epoch = epoch + 1;
      } else {
        ++epochs_since_best;
        if (epochs_since_best >= config.patience) {
          summary.stopped_early = true;
          stop_early = true;
          if (config.log_every > 0) {
            LOG_INFO << StrFormat(
                "early stop at epoch %zu (best validation loss %.6f at epoch "
                "%zu)",
                epoch + 1, best_val_loss, summary.best_epoch);
          }
        }
      }
    }

    // The epoch span closes here (validation included) so epoch_seconds and
    // the telemetry record cover the same window — even on the early-stop
    // epoch, which is why the break above became a flag.
    summary.epoch_seconds.push_back(epoch_span.Stop());

    if (telemetry != nullptr) {
      EpochTelemetry record;
      record.epoch = epoch + 1;
      record.mean_loss = epoch_loss;
      if (!summary.validation_losses.empty()) {
        record.has_validation_loss = true;
        record.validation_loss = summary.validation_losses.back();
      }
      record.grad_norm = std::sqrt(store->GradSquaredNorm());
      record.param_norm = std::sqrt(store->SquaredNorm());
      record.epoch_seconds = summary.epoch_seconds.back();
      record.cumulative_steps = summary.steps;
      RETURN_IF_ERROR(telemetry->OnEpochEnd(std::move(record)));
    }

    if (config.log_every > 0 && (epoch + 1) % config.log_every == 0) {
      LOG_INFO << StrFormat("epoch %zu/%zu loss=%.6f%s", epoch + 1, config.epochs,
                            epoch_loss,
                            summary.validation_losses.empty()
                                ? ""
                                : StrFormat(" val=%.6f",
                                            summary.validation_losses.back())
                                      .c_str());
    }
    if (stop_early) break;
  }

  if (!best_snapshot.empty()) {
    RestoreParameters(best_snapshot, store);
  }
  summary.seconds = run_span.Stop();
  return summary;
}

}  // namespace core
}  // namespace smgcn
