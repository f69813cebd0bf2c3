// Immutable scoring artifact behind the serving engine.
//
// An EmbeddingStore is built once from an InferenceCheckpoint and serves the
// syndrome-aware prediction pipeline (PAPER.md eqs. 12-13) for whole batches:
//
//   pooled  = mean of the query's symptom embedding rows     (B x d)
//   synd    = ReLU(pooled W + b)   when the SI MLP is present (B x d)
//   scores  = synd * E_H^T                                    (B x H)
//
// The herb matrix is re-laid out at Build time into its transpose (d x H) so
// the batched GEMM's inner loop runs contiguously over herbs with independent
// accumulators — the layout the vectoriser wants. Every row of a batched
// result is bit-identical to scoring that query alone (the kernels process
// rows independently in a fixed order), which is what makes the engine's
// batched and per-query paths interchangeable.
//
// Precision: a store is built at one of three precisions. Every precision
// scores through the runtime-dispatched kernels (tensor/kernels.h).
//   * Precision::kFloat64 (the default) is the bit-exact reference: plain
//     double arithmetic, identical to CheckpointRecommender::Score. Its
//     score GEMM is the kernels' gemm_f64, which keeps the reference
//     per-element order (no FMA) on the scalar and AVX2 backends alike.
//   * Precision::kFloat32 halves the embedding footprint (the checkpoint's
//     doubles are narrowed once at Build, round-to-nearest-even) and scores
//     through the runtime-dispatched f32 kernels (tensor/kernels.h —
//     AVX2 where the CPU has it, scalar otherwise). Score() hands out the
//     float rows as the kernel wrote them; only dense mode (ScoreBatchInto)
//     returns them widened to double. Accuracy versus the f64 reference is
//     bounded by the top-k-agreement / NDCG-delta parity tests.
//   * Precision::kInt8 quantizes the symptom and herb embeddings per row
//     (tensor/quantize.h) to ~1/8 the f64 embedding footprint and scores
//     the final embedding GEMM through the dispatched int8 kernels. Only
//     that GEMM is quantized: pooling dequantizes symptom rows on the fly
//     in f32 and the SI MLP runs in f32, then each pooled/activated row is
//     quantized once before the herb GEMM. Because the int8 kernels
//     accumulate exactly, int8 scores are bit-identical across backends,
//     not just within one.
// The row-independence contract holds at every precision and backend:
// batched rows are bit-identical to single-query runs within one
// (store, backend) pair — and across backends for int8.
#ifndef SMGCN_SERVE_EMBEDDING_STORE_H_
#define SMGCN_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/artifact.h"
#include "src/core/checkpoint.h"
#include "src/serve/query.h"
#include "src/tensor/kernels.h"
#include "src/tensor/matrix.h"
#include "src/tensor/quantize.h"
#include "src/util/status.h"

namespace smgcn {
namespace serve {

/// Immutable, thread-safe (read-only after Build) scoring artifact.
class EmbeddingStore {
 public:
  /// Validates the checkpoint and takes ownership of its matrices. At
  /// Precision::kFloat32 the payloads are narrowed once here and the
  /// doubles are dropped (half-footprint serving); at Precision::kInt8 the
  /// embeddings are quantized per row and only the SI MLP stays f32.
  static Result<EmbeddingStore> Build(
      core::InferenceCheckpoint checkpoint,
      tensor::Precision precision = tensor::Precision::kFloat64);

  /// Builds a store that serves the artifact at its stored precision. For
  /// an int8 artifact the quantized payload and scale vectors are copied
  /// bit-exactly into the serving layout — the integers scored are the
  /// integers on disk, with no dequantize/requantize round trip on the
  /// embedding sections (the SI MLP is dequantized to f32 once, matching
  /// Build's f32-MLP policy).
  static Result<EmbeddingStore> BuildFromArtifact(
      const core::MappedArtifact& artifact);

  const std::string& model_name() const { return model_name_; }
  std::size_t num_symptoms() const { return num_symptoms_; }
  std::size_t num_herbs() const { return num_herbs_; }
  std::size_t dim() const { return dim_; }
  bool has_si_mlp() const { return has_si_mlp_; }
  tensor::Precision precision() const { return precision_; }

  /// Bytes held by the embedding/MLP payloads (the f32 build is half the
  /// f64 build of the same checkpoint; the int8 build holds the embeddings
  /// at 1/8 plus per-row f32 scales and the MLP at f32).
  std::size_t payload_bytes() const;

  /// Mean-pools each query's symptom embeddings into one row (B x d).
  /// Queries must already be canonical (ids validated against
  /// num_symptoms()). Double-precision (reference-path) pooling.
  tensor::Matrix PoolSymptoms(const std::vector<CanonicalQuery>& batch) const;

  /// The b x H score rows of one scored batch, in the store's own
  /// arithmetic: float rows for the f32 and int8 stores (the kernel's
  /// per-thread scratch, valid until the next scoring call on the same
  /// thread), double rows for the f64 store (its GEMM matrix, held here).
  /// Exactly one of `f32` and `f64` holds the rows.
  struct ScoreBlock {
    const float* f32 = nullptr;
    tensor::Matrix f64;
    std::size_t num_herbs = 0;

    /// eval::TopK of row i: the ids ranking the widened row would give.
    std::vector<std::size_t> TopK(std::size_t i, std::size_t k) const;
    /// Row i widened to double (exact for float rows).
    void Widen(std::size_t i, std::vector<double>* out) const;
  };

  /// Scores every herb for every query in one fused pass; row i of the
  /// block belongs to batch[i]. The one scoring dispatch: each precision
  /// branches here, and row i is bit-identical to ScoreOne(batch[i]).
  ScoreBlock Score(const std::vector<CanonicalQuery>& batch) const;

  /// Dense mode: Score() widened into the caller's rows, query i's H scores
  /// into rows[i] for i in [0, batch.size()).
  void ScoreBatchInto(const std::vector<CanonicalQuery>& batch,
                      std::vector<double>* rows) const;

  /// Herb scores for a single canonical query, widened to double
  /// (ScoreBatchInto with a batch of one).
  std::vector<double> ScoreOne(const CanonicalQuery& query) const;

  /// True when the store carries the pre-fusion Bipar-GCN herb component
  /// and Attribute() can split scores into bipar + synergy.
  bool has_herb_bipar() const { return has_herb_bipar_; }

  /// Decomposes the served score of each herb in `herb_ids` for `query`
  /// (see src/audit/audit.h for the math and the exact-residual contract).
  /// The score itself is recomputed here through this store's own serving
  /// path with batch size 1 — bit-identical to any served batch row by the
  /// row-independence contract, so attribution needs no plumbing through
  /// the batcher or the top-k cache. The fusion split requires
  /// has_herb_bipar(); without it each herb reports bipar == score,
  /// synergy == 0 and has_components == false. Per-symptom contributions
  /// are computed in double over the store's own (narrowed / dequantized)
  /// tables; both reconstructions are anchored bit-exactly by their
  /// residual terms at every precision, and the residual magnitudes are
  /// the store's attribution fidelity bound (exact zeros at f64).
  Result<audit::QueryAttribution> Attribute(
      const CanonicalQuery& query,
      const std::vector<std::size_t>& herb_ids) const;

 private:
  /// The shape and flags every precision shares, read off `checkpoint`;
  /// Build and BuildInt8 fill in the payloads.
  EmbeddingStore(const core::InferenceCheckpoint& checkpoint,
                 tensor::Precision precision);

  /// The int8 build step Build (which quantizes the checkpoint) and
  /// BuildFromArtifact (which copies the stored integers) share: takes the
  /// per-row quantized symptom, herb and bipar tables (bipar empty when the
  /// checkpoint has none) and derives the dequantized pooling cache, the
  /// transposed and pre-packed herb layout and the f32 SI MLP.
  static EmbeddingStore BuildInt8(const core::InferenceCheckpoint& checkpoint,
                                  tensor::quantize::QuantizedMatrix symptoms,
                                  tensor::quantize::QuantizedMatrix herbs,
                                  tensor::quantize::QuantizedMatrix bipar);

  /// Per-precision scoring guts behind Score. The f64 path returns
  /// the b x H reference matrix; the f32/int8 paths compute the score block
  /// in f32 and return a pointer into per-thread scratch (valid until the
  /// next call on this thread).
  tensor::Matrix ScoreBatchF64(const std::vector<CanonicalQuery>& batch) const;
  const float* ScoreBatchF32Raw(const std::vector<CanonicalQuery>& batch) const;
  const float* ScoreBatchS8Raw(const std::vector<CanonicalQuery>& batch) const;
  /// f64 mean-pool + SI MLP (eq. 12): the activation rows (batch x d) the
  /// reference GEMM and the f64 attribution both start from.
  tensor::Matrix PoolAndActivateF64(
      const std::vector<CanonicalQuery>& batch) const;
  /// Shared f32 mean-pool + SI MLP (both reduced-precision paths run the
  /// identical f32 pipeline up to the herb GEMM). Writes into the caller's
  /// scratch (the raw scorers pass their thread_locals; Attribute passes
  /// locals) and returns the activation block, batch x d.
  const float* PoolAndActivateF32(const std::vector<CanonicalQuery>& batch,
                                  std::vector<float>* pooled,
                                  std::vector<float>* hidden) const;

  std::string model_name_;
  tensor::Precision precision_ = tensor::Precision::kFloat64;
  std::size_t num_symptoms_ = 0;
  std::size_t num_herbs_ = 0;
  std::size_t dim_ = 0;
  bool has_si_mlp_ = false;
  bool has_herb_bipar_ = false;

  // f64 (reference) payloads; empty when precision_ == kFloat32.
  tensor::Matrix symptom_embeddings_;  // S x d
  tensor::Matrix herb_embeddings_t_;   // d x H, GEMM-friendly serving layout
  tensor::Matrix si_weight_;           // d x d
  tensor::Matrix si_bias_;             // 1 x d
  // Pre-fusion Bipar-GCN herb component for attribution (H x d, row-major:
  // it is only ever read one herb row at a time, never GEMMed).
  tensor::Matrix herb_bipar_;

  // f32 payloads (same layouts); empty when precision_ == kFloat64. The
  // int8 store reuses si_weight_f32_/si_bias_f32_ for its f32 SI MLP and
  // keeps a build-time dequantized copy of the symptom table in
  // symptom_f32_ as its pooling cache (exactly (float)q * scale per
  // element — a derived cache, not payload: symptom_s8_ stays the stored
  // truth and payload_bytes() counts only that).
  std::vector<float> symptom_f32_;   // S x d
  std::vector<float> herbs_t_f32_;   // d x H
  std::vector<float> si_weight_f32_; // d x d
  std::vector<float> si_bias_f32_;   // d
  std::vector<float> herb_bipar_f32_;  // H x d (row-major, attribution only)

  // int8 payloads; empty unless precision_ == kInt8. Scales are per
  // original matrix row: symptom_scales_[s] for symptom s's row,
  // herb_scales_[j] for herb j — column j of the transposed layout.
  std::vector<std::int8_t> symptom_s8_;  // S x d
  std::vector<std::int8_t> herbs_t_s8_;  // d x H (transposed serving layout)
  std::vector<float> symptom_scales_;    // S
  std::vector<float> herb_scales_;       // H
  // Attribution component, quantized per herb row like the embeddings but
  // kept row-major (H x d): Attribute reads whole herb rows.
  std::vector<std::int8_t> herb_bipar_s8_;
  std::vector<float> herb_bipar_scales_;  // H

  // Build-time pre-pack of herbs_t_s8_ in the active kernel backend's
  // gemm_s8_packed layout — another derived cache (herbs_t_s8_ stays the
  // stored truth). Empty when the backend has no packed form (scalar);
  // ScoreBatchS8Raw then passes nullptr and the kernel packs internally.
  std::vector<std::int32_t> herb_packed_;
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_EMBEDDING_STORE_H_
