// Model and training configuration shared by SMGCN and the GNN baselines.
#ifndef SMGCN_CORE_CONFIG_H_
#define SMGCN_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph_builder.h"
#include "src/util/status.h"

namespace smgcn {
namespace core {

/// Objective used by the mini-batch trainer (paper Table VIII compares the
/// two on identical embedding layers).
enum class LossKind {
  /// Weighted multi-label MSE of eqs. (13)-(15) — the paper's choice.
  kMultiLabel,
  /// Pairwise BPR with sampled negatives.
  kBpr,
};

const char* LossKindToString(LossKind kind);

/// Optimisation hyper-parameters (paper Sec. V-D: Adam, Xavier init,
/// mini-batches, grid-searched lr / lambda / dropout).
struct TrainConfig {
  double learning_rate = 1e-3;
  /// L2 regularisation strength lambda_Theta of eq. (13).
  double l2_lambda = 1e-4;
  std::size_t batch_size = 512;
  std::size_t epochs = 30;
  LossKind loss = LossKind::kMultiLabel;
  /// Negatives sampled per positive herb for BPR.
  std::size_t bpr_negatives = 1;
  std::uint64_t seed = 7;
  /// Log the epoch loss every `log_every` epochs (0 = silent).
  std::size_t log_every = 0;

  /// Early stopping: when > 0, this fraction of the training prescriptions
  /// is held out; the data loss on it is evaluated after every epoch
  /// (dropout off) and training stops once it fails to improve for
  /// `patience` consecutive epochs. The best-epoch parameters are restored.
  double validation_fraction = 0.0;
  std::size_t patience = 5;

  Status Validate() const;
};

/// How SGE output r is merged with the Bipar-GCN output b (paper eq. 11
/// uses addition; attention fusion implements the paper's future-work
/// suggestion of attention-based embedding learning).
enum class FusionKind {
  kAdd,
  kAttention,
};

const char* FusionKindToString(FusionKind kind);

/// Neighbourhood aggregation on the synergy graphs (the paper picks sum
/// because its synergy graphs have smooth degree distributions; mean is
/// provided as an ablation for corpora with heavy-tailed synergy degrees).
enum class SgeAggregator {
  kSum,
  kMean,
};

const char* SgeAggregatorToString(SgeAggregator aggregator);

/// Architecture of SMGCN and its submodels (paper Sec. IV). The defaults
/// are the paper's reported optimum: embedding size 64, two Bipar-GCN
/// layers of widths 128 and 256, SGE thresholds xs=5 / xh=40.
struct ModelConfig {
  /// Initial (layer-0) embedding size of symptoms and herbs.
  std::size_t embedding_dim = 64;
  /// Output width of each Bipar-GCN propagation layer; its length is the
  /// GCN depth (paper Table VI sweeps 1..3, Table VII sweeps the last dim).
  std::vector<std::size_t> layer_dims = {128, 256};
  /// Synergy Graph Encoding on SS / HH co-occurrence graphs (Sec. IV-B).
  bool use_sge = true;
  /// Syndrome Induction MLP (eq. 12); false = average pooling only.
  bool use_si_mlp = true;
  /// Message dropout on aggregated neighbourhood embeddings (Sec. V-E.3).
  double dropout = 0.0;
  /// Co-occurrence thresholds for the synergy graphs.
  graph::SynergyThresholds thresholds;
  /// Fusion of Bipar-GCN and SGE embeddings (only used with use_sge).
  FusionKind fusion = FusionKind::kAdd;
  /// Aggregator of the SGE convolution (only used with use_sge).
  SgeAggregator sge_aggregator = SgeAggregator::kSum;
  /// GraphSAGE/PinSage-style neighbourhood sampling during training: each
  /// training pass draws at most this many bipartite neighbours per node
  /// (0 = use the full neighbourhood, as the paper does). Inference always
  /// uses the full graph.
  std::size_t max_sampled_neighbors = 0;

  Status Validate() const;

  /// Output embedding width after propagation (layer_dims.back(), or
  /// embedding_dim when there are no propagation layers).
  std::size_t FinalDim() const;
};

}  // namespace core
}  // namespace smgcn

#endif  // SMGCN_CORE_CONFIG_H_
