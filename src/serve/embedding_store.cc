#include "src/serve/embedding_store.h"

#include <utility>

#include "src/eval/metrics.h"
#include "src/tensor/quantize.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace serve {

namespace {
/// Narrows a matrix into a flat f32 vector (row-major, same layout).
/// static_cast<float> rounds to nearest even — the IEEE-754 default — and
/// is the documented artifact/store narrowing everywhere in this repo.
std::vector<float> NarrowToF32(const tensor::Matrix& m) {
  std::vector<float> out(m.size());
  const double* src = m.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(src[i]);
  }
  return out;
}

/// Re-lays a row-major rows x cols s8 matrix out as its transpose
/// (cols x rows) — the herb payload into the GEMM-friendly d x H layout.
std::vector<std::int8_t> TransposeS8(const std::int8_t* values,
                                     std::size_t rows, std::size_t cols) {
  std::vector<std::int8_t> out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out[c * rows + r] = values[r * cols + c];
    }
  }
  return out;
}

/// Dequantizes a row-major s8 table into f32 ((float)q * scale per element)
/// — the int8 store's build-time pooling cache, so the per-query pooling
/// loop never re-multiplies scales. Each cached value is the exact f32 the
/// on-the-fly dequantization would produce, so scores are unchanged bit
/// for bit.
std::vector<float> DequantizeTableF32(const std::vector<std::int8_t>& q,
                                      const std::vector<float>& scales,
                                      std::size_t cols) {
  std::vector<float> out(q.size());
  for (std::size_t r = 0; r < scales.size(); ++r) {
    tensor::quantize::DequantizeRowF32(q.data() + r * cols, cols, scales[r],
                                       out.data() + r * cols);
  }
  return out;
}

/// Copies an int8 artifact section — values and per-row scales — verbatim.
tensor::quantize::QuantizedMatrix CopyS8Section(
    const core::MappedArtifact::SectionView& view) {
  tensor::quantize::QuantizedMatrix m;
  m.values.assign(view.data_s8, view.data_s8 + view.rows * view.cols);
  m.scales.assign(view.scales, view.scales + view.rows);
  m.rows = view.rows;
  m.cols = view.cols;
  return m;
}

/// Pre-packs the transposed herb table into the active kernel backend's
/// gemm_s8_packed layout, hoisting the GEMM's per-call bt widening to build
/// time. Empty when the backend has no packed form (scalar) —
/// ScoreBatchS8Raw then passes nullptr and the kernel handles bt itself.
std::vector<std::int32_t> PackHerbsS8(const std::vector<std::int8_t>& bt,
                                      std::size_t d, std::size_t h) {
  const tensor::kernels::Backend& kern = tensor::kernels::Active();
  std::vector<std::int32_t> packed(kern.gemm_s8_pack_size(d, h));
  if (!packed.empty()) kern.gemm_s8_pack(bt.data(), d, h, packed.data());
  return packed;
}
}  // namespace

EmbeddingStore::EmbeddingStore(const core::InferenceCheckpoint& checkpoint,
                               tensor::Precision precision)
    : model_name_(checkpoint.model_name),
      precision_(precision),
      num_symptoms_(checkpoint.symptom_embeddings.rows()),
      num_herbs_(checkpoint.herb_embeddings.rows()),
      dim_(checkpoint.symptom_embeddings.cols()),
      has_si_mlp_(checkpoint.has_si_mlp),
      has_herb_bipar_(checkpoint.has_herb_bipar) {}

Result<EmbeddingStore> EmbeddingStore::Build(core::InferenceCheckpoint checkpoint,
                                             tensor::Precision precision) {
  RETURN_IF_ERROR(checkpoint.Validate());
  if (precision == tensor::Precision::kInt8) {
    // Quantize every table per row (symptom s, herb j) once, here.
    using tensor::quantize::QuantizeRows;
    tensor::quantize::QuantizedMatrix bipar;
    if (checkpoint.has_herb_bipar) bipar = QuantizeRows(checkpoint.herb_bipar);
    return BuildInt8(checkpoint, QuantizeRows(checkpoint.symptom_embeddings),
                     QuantizeRows(checkpoint.herb_embeddings),
                     std::move(bipar));
  }
  EmbeddingStore store(checkpoint, precision);
  // Serving layout: the GEMM wants herb-contiguous rows per embedding dim.
  tensor::Matrix herbs_t = checkpoint.herb_embeddings.Transpose();
  if (precision == tensor::Precision::kFloat32) {
    // Narrow once at build time and drop the doubles: the f32 store is the
    // half-footprint deployment artifact, not a cache over the f64 one.
    store.symptom_f32_ = NarrowToF32(checkpoint.symptom_embeddings);
    store.herbs_t_f32_ = NarrowToF32(herbs_t);
    if (store.has_si_mlp_) {
      store.si_weight_f32_ = NarrowToF32(checkpoint.si_weight);
      store.si_bias_f32_ = NarrowToF32(checkpoint.si_bias);
    }
    if (store.has_herb_bipar_) {
      store.herb_bipar_f32_ = NarrowToF32(checkpoint.herb_bipar);
    }
    return store;
  }
  store.symptom_embeddings_ = std::move(checkpoint.symptom_embeddings);
  store.herb_embeddings_t_ = std::move(herbs_t);
  if (store.has_si_mlp_) {
    store.si_weight_ = std::move(checkpoint.si_weight);
    store.si_bias_ = std::move(checkpoint.si_bias);
  }
  if (store.has_herb_bipar_) {
    store.herb_bipar_ = std::move(checkpoint.herb_bipar);
  }
  return store;
}

Result<EmbeddingStore> EmbeddingStore::BuildFromArtifact(
    const core::MappedArtifact& artifact) {
  // ToCheckpoint runs the full semantic validation (shape consistency and
  // the non-finite scan) for every dtype; the float builds also reuse its
  // widened matrices directly.
  ASSIGN_OR_RETURN(core::InferenceCheckpoint checkpoint, artifact.ToCheckpoint());
  if (artifact.precision() != tensor::Precision::kInt8) {
    return Build(std::move(checkpoint), artifact.precision());
  }
  // Int8: serve the stored integers verbatim. (Re-quantizing the validated
  // checkpoint would reproduce the same bits — the round trip is exact —
  // but copying the mapped payload makes "stored precision" literal and
  // skips the quantization pass.)
  tensor::quantize::QuantizedMatrix bipar;
  if (checkpoint.has_herb_bipar) bipar = CopyS8Section(artifact.herb_bipar());
  return BuildInt8(checkpoint, CopyS8Section(artifact.symptom_embeddings()),
                   CopyS8Section(artifact.herb_embeddings()), std::move(bipar));
}

EmbeddingStore EmbeddingStore::BuildInt8(
    const core::InferenceCheckpoint& checkpoint,
    tensor::quantize::QuantizedMatrix symptoms,
    tensor::quantize::QuantizedMatrix herbs,
    tensor::quantize::QuantizedMatrix bipar) {
  EmbeddingStore store(checkpoint, tensor::Precision::kInt8);
  store.symptom_s8_ = std::move(symptoms.values);
  store.symptom_scales_ = std::move(symptoms.scales);
  store.symptom_f32_ =
      DequantizeTableF32(store.symptom_s8_, store.symptom_scales_, store.dim_);
  // Herb values are re-laid out into the transposed serving layout, where
  // herb j's scale becomes column j's scale.
  store.herbs_t_s8_ = TransposeS8(herbs.values.data(), herbs.rows, herbs.cols);
  store.herb_scales_ = std::move(herbs.scales);
  store.herb_packed_ =
      PackHerbsS8(store.herbs_t_s8_, store.dim_, store.num_herbs_);
  if (store.has_si_mlp_) {
    // The SI MLP stays f32: only the embedding GEMM is quantized.
    store.si_weight_f32_ = NarrowToF32(checkpoint.si_weight);
    store.si_bias_f32_ = NarrowToF32(checkpoint.si_bias);
  }
  // The attribution component stays row-major: it is read one herb row at
  // a time, never GEMMed, so no transpose.
  store.herb_bipar_s8_ = std::move(bipar.values);
  store.herb_bipar_scales_ = std::move(bipar.scales);
  return store;
}

std::size_t EmbeddingStore::payload_bytes() const {
  if (precision_ == tensor::Precision::kInt8) {
    return symptom_s8_.size() + herbs_t_s8_.size() + herb_bipar_s8_.size() +
           (symptom_scales_.size() + herb_scales_.size() +
            herb_bipar_scales_.size() + si_weight_f32_.size() +
            si_bias_f32_.size()) *
               sizeof(float);
  }
  if (precision_ == tensor::Precision::kFloat32) {
    return (symptom_f32_.size() + herbs_t_f32_.size() + si_weight_f32_.size() +
            si_bias_f32_.size() + herb_bipar_f32_.size()) *
           sizeof(float);
  }
  return (symptom_embeddings_.size() + herb_embeddings_t_.size() +
          si_weight_.size() + si_bias_.size() + herb_bipar_.size()) *
         sizeof(double);
}

tensor::Matrix EmbeddingStore::PoolSymptoms(
    const std::vector<CanonicalQuery>& batch) const {
  SMGCN_CHECK(precision_ == tensor::Precision::kFloat64)
      << "PoolSymptoms is the reference (f64) pooling path";
  const std::size_t d = dim();
  tensor::Matrix pooled(batch.size(), d, 0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<int>& ids = batch[i].symptom_ids;
    SMGCN_CHECK(!ids.empty()) << "canonical query must be non-empty";
    double* out = pooled.row_data(i);
    for (int s : ids) {
      SMGCN_CHECK_LT(static_cast<std::size_t>(s), num_symptoms());
      const double* row = symptom_embeddings_.row_data(static_cast<std::size_t>(s));
      for (std::size_t c = 0; c < d; ++c) out[c] += row[c];
    }
    const double inv = 1.0 / static_cast<double>(ids.size());
    for (std::size_t c = 0; c < d; ++c) out[c] *= inv;
  }
  return pooled;
}

std::vector<std::size_t> EmbeddingStore::ScoreBlock::TopK(
    std::size_t i, std::size_t k) const {
  if (f32 != nullptr) return eval::TopK(f32 + i * num_herbs, num_herbs, k);
  return eval::TopK(f64.row_data(i), num_herbs, k);
}

void EmbeddingStore::ScoreBlock::Widen(std::size_t i,
                                       std::vector<double>* out) const {
  // assign() is a single converting pass with no value-init sweep.
  if (f32 != nullptr) {
    const float* row = f32 + i * num_herbs;
    out->assign(row, row + num_herbs);
    return;
  }
  const double* row = f64.row_data(i);
  out->assign(row, row + num_herbs);
}

EmbeddingStore::ScoreBlock EmbeddingStore::Score(
    const std::vector<CanonicalQuery>& batch) const {
  ScoreBlock block;
  block.num_herbs = num_herbs();
  switch (precision_) {
    case tensor::Precision::kFloat32:
      block.f32 = ScoreBatchF32Raw(batch);
      break;
    case tensor::Precision::kInt8:
      block.f32 = ScoreBatchS8Raw(batch);
      break;
    case tensor::Precision::kFloat64:
      block.f64 = ScoreBatchF64(batch);
      break;
  }
  return block;
}

void EmbeddingStore::ScoreBatchInto(const std::vector<CanonicalQuery>& batch,
                                    std::vector<double>* rows) const {
  const ScoreBlock block = Score(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) block.Widen(i, &rows[i]);
}

tensor::Matrix EmbeddingStore::PoolAndActivateF64(
    const std::vector<CanonicalQuery>& batch) const {
  tensor::Matrix pooled = PoolSymptoms(batch);
  if (!has_si_mlp_) return pooled;
  // ReLU(pooled W + b), eq. 12, applied to the whole batch at once. The
  // bias row is added per query row (broadcast over the batch).
  tensor::Matrix hidden = pooled.MatMul(si_weight_);
  const double* bias = si_bias_.row_data(0);
  const std::size_t d = dim();
  for (std::size_t i = 0; i < hidden.rows(); ++i) {
    double* row = hidden.row_data(i);
    for (std::size_t c = 0; c < d; ++c) {
      row[c] += bias[c];
      if (row[c] < 0.0) row[c] = 0.0;
    }
  }
  return hidden;
}

tensor::Matrix EmbeddingStore::ScoreBatchF64(
    const std::vector<CanonicalQuery>& batch) const {
  // One B x d * d x H GEMM scores the whole batch (eq. 13), in the
  // reference order on every backend; it writes every output element.
  const tensor::Matrix activations = PoolAndActivateF64(batch);
  tensor::Matrix scores =
      tensor::Matrix::Uninitialized(batch.size(), num_herbs());
  tensor::kernels::Active().gemm_f64(activations.data(),
                                     herb_embeddings_t_.data(), batch.size(),
                                     dim(), num_herbs(), scores.data());
  return scores;
}

const float* EmbeddingStore::PoolAndActivateF32(
    const std::vector<CanonicalQuery>& batch, std::vector<float>* pooled,
    std::vector<float>* hidden) const {
  const std::size_t d = dim();
  pooled->assign(batch.size() * d, 0.0f);

  // Mean-pool in f32 (same sum-then-scale order as the reference). The f32
  // store pools its narrowed symptom table; the int8 store pools its
  // build-time dequantized cache — the same member either way.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<int>& ids = batch[i].symptom_ids;
    SMGCN_CHECK(!ids.empty()) << "canonical query must be non-empty";
    float* out = pooled->data() + i * d;
    for (int s : ids) {
      SMGCN_CHECK_LT(static_cast<std::size_t>(s), num_symptoms());
      const float* row = symptom_f32_.data() + static_cast<std::size_t>(s) * d;
      for (std::size_t c = 0; c < d; ++c) out[c] += row[c];
    }
    const float inv = 1.0f / static_cast<float>(ids.size());
    for (std::size_t c = 0; c < d; ++c) out[c] *= inv;
  }
  if (!has_si_mlp_) return pooled->data();

  // ReLU(pooled W + b): the d x d weight is row-major, which is already
  // the kernels' k-major "bt" layout for this product.
  const tensor::kernels::Backend& kern = tensor::kernels::Active();
  hidden->resize(batch.size() * d);
  kern.gemm_f32(pooled->data(), si_weight_f32_.data(), batch.size(), d, d,
                hidden->data());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    float* row = hidden->data() + i * d;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] += si_bias_f32_[c];
      if (row[c] < 0.0f) row[c] = 0.0f;
    }
  }
  return hidden->data();
}

const float* EmbeddingStore::ScoreBatchF32Raw(
    const std::vector<CanonicalQuery>& batch) const {
  const std::size_t d = dim();
  const std::size_t h = num_herbs();
  const tensor::kernels::Backend& kern = tensor::kernels::Active();

  // Per-thread scratch persists across calls (the scores buffer alone is
  // hundreds of KB at serving batch sizes; a per-call vector would re-mmap
  // and page-fault through it every batch) and outlives the return — the
  // caller reads the scores straight out of it.
  static thread_local std::vector<float> pooled;
  static thread_local std::vector<float> hidden;
  static thread_local std::vector<float> scores;
  const float* activations = PoolAndActivateF32(batch, &pooled, &hidden);

  // One B x d * d x H f32 GEMM (eq. 13).
  scores.resize(batch.size() * h);
  kern.gemm_f32(activations, herbs_t_f32_.data(), batch.size(), d, h,
                scores.data());
  return scores.data();
}

const float* EmbeddingStore::ScoreBatchS8Raw(
    const std::vector<CanonicalQuery>& batch) const {
  const std::size_t d = dim();
  const std::size_t h = num_herbs();
  const tensor::kernels::Backend& kern = tensor::kernels::Active();

  // Per-thread scratch persists across calls: at serving batch sizes the
  // scores buffer alone is hundreds of KB, which a per-call std::vector
  // would re-mmap (and page-fault through) every batch. Resizes are no-ops
  // after warm-up.
  static thread_local std::vector<float> pooled;
  static thread_local std::vector<float> hidden;
  static thread_local std::vector<std::int8_t> act;
  static thread_local std::vector<float> act_scales;
  static thread_local std::vector<float> scores;

  // Mean-pool against the build-time dequantized symptom cache (each
  // cached element is exactly (float)q * scale), then the f32 SI MLP —
  // deliberately not quantized; only the herb GEMM below is.
  const float* activations = PoolAndActivateF32(batch, &pooled, &hidden);

  // Quantize each activation row once, then one int8 B x d * d x H GEMM
  // (eq. 13). Row-wise quantization + exact i32 accumulation keep every
  // batch row bit-identical to the single-query path on any backend.
  act.resize(batch.size() * d);
  act_scales.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    act_scales[i] = tensor::quantize::QuantizeRowF32(activations + i * d, d,
                                                     act.data() + i * d);
  }
  scores.resize(batch.size() * h);
  // The herb table was pre-packed at build time (when the active backend
  // has a packed form); a null pack is valid and packs inside the call —
  // that covers a store built under one backend but scored under another
  // (the forced-scalar toggle flips the dispatch mid-process in tests).
  kern.gemm_s8_packed(act.data(), herbs_t_s8_.data(),
                      herb_packed_.empty() ? nullptr : herb_packed_.data(),
                      batch.size(), d, h, act_scales.data(),
                      herb_scales_.data(), scores.data());
  return scores.data();
}

std::vector<double> EmbeddingStore::ScoreOne(const CanonicalQuery& query) const {
  std::vector<double> scores;
  ScoreBatchInto({query}, &scores);
  return scores;
}

Result<audit::QueryAttribution> EmbeddingStore::Attribute(
    const CanonicalQuery& query,
    const std::vector<std::size_t>& herb_ids) const {
  const std::size_t d = dim();
  const std::size_t h = num_herbs();
  const std::vector<int>& ids = query.symptom_ids;
  if (ids.empty()) {
    return Status::InvalidArgument("cannot attribute an empty symptom set");
  }
  for (int s : ids) {
    if (s < 0 || static_cast<std::size_t>(s) >= num_symptoms()) {
      return Status::InvalidArgument(
          StrFormat("symptom id %d outside vocabulary", s));
    }
  }
  for (std::size_t j : herb_ids) {
    if (j >= h) {
      return Status::InvalidArgument(
          StrFormat("herb id %zu outside vocabulary", j));
    }
  }

  // Recompute the served score row through this store's own batch-of-one
  // path. Row independence makes this bit-identical to whatever batch the
  // query was actually served in (and to a top-k cache hit, whose entry was
  // produced by the same path), so attribution never needs the original
  // batch context.
  const std::vector<double> scores = ScoreOne(query);

  // The activation row (post-pool, post-MLP) in the store's own arithmetic:
  // plain double for f64, the shared f32 pipeline for f32 and int8. The
  // widened copy drives the ReLU gates and the per-symptom dots below.
  std::vector<double> act(d);
  std::vector<float> act_f32;
  if (precision_ == tensor::Precision::kFloat64) {
    const tensor::Matrix activated = PoolAndActivateF64({query});
    const double* row = activated.row_data(0);
    act.assign(row, row + d);
  } else {
    std::vector<float> pooled_scratch;
    std::vector<float> hidden_scratch;
    const float* a = PoolAndActivateF32({query}, &pooled_scratch,
                                        &hidden_scratch);
    act_f32.assign(a, a + d);
    for (std::size_t c = 0; c < d; ++c) {
      act[c] = static_cast<double>(act_f32[c]);
    }
  }

  // int8: quantize the activation row exactly as the serving GEMM does, so
  // the bipar dot below runs over the same integers the score used.
  std::vector<std::int8_t> act_q;
  float act_scale = 0.0f;
  if (precision_ == tensor::Precision::kInt8) {
    act_q.resize(d);
    act_scale = tensor::quantize::QuantizeRowF32(act_f32.data(), d,
                                                 act_q.data());
  }

  // Widened views of the store's own tables (narrowed f32 / dequantized
  // int8 values — the values the served score actually saw, not the
  // original f64 checkpoint).
  const auto symptom_at = [&](int s, std::size_t c) -> double {
    if (precision_ == tensor::Precision::kFloat64) {
      return symptom_embeddings_.row_data(static_cast<std::size_t>(s))[c];
    }
    return static_cast<double>(
        symptom_f32_[static_cast<std::size_t>(s) * d + c]);
  };
  const auto herb_at = [&](std::size_t j, std::size_t c) -> double {
    switch (precision_) {
      case tensor::Precision::kFloat32:
        return static_cast<double>(herbs_t_f32_[c * h + j]);
      case tensor::Precision::kInt8:
        return static_cast<double>(herbs_t_s8_[c * h + j]) *
               static_cast<double>(herb_scales_[j]);
      case tensor::Precision::kFloat64:
        break;
    }
    return herb_embeddings_t_.row_data(c)[j];
  };
  const auto weight_at = [&](std::size_t k, std::size_t c) -> double {
    if (precision_ == tensor::Precision::kFloat64) {
      return si_weight_.row_data(k)[c];
    }
    return static_cast<double>(si_weight_f32_[k * d + c]);
  };
  const auto bias_at = [&](std::size_t c) -> double {
    if (precision_ == tensor::Precision::kFloat64) {
      return si_bias_.row_data(0)[c];
    }
    return static_cast<double>(si_bias_f32_[c]);
  };

  audit::QueryAttribution out;
  out.symptom_ids = ids;
  out.herbs.reserve(herb_ids.size());
  std::vector<double> gated(d);
  std::vector<double> w_vec(d);
  for (std::size_t j : herb_ids) {
    audit::HerbAttribution herb;
    herb.herb_id = j;
    herb.score = scores[j];

    // Fusion axis: bipar is the activation row dotted with the pre-fusion
    // component at the store's own precision; the residual anchors
    // bipar + synergy == score bit-exactly.
    if (has_herb_bipar_) {
      herb.has_components = true;
      double bipar = 0.0;
      switch (precision_) {
        case tensor::Precision::kFloat64: {
          const double* b_row = herb_bipar_.row_data(j);
          for (std::size_t c = 0; c < d; ++c) bipar += act[c] * b_row[c];
          break;
        }
        case tensor::Precision::kFloat32: {
          const float* b_row = herb_bipar_f32_.data() + j * d;
          for (std::size_t c = 0; c < d; ++c) {
            bipar += static_cast<double>(act_f32[c]) *
                     static_cast<double>(b_row[c]);
          }
          break;
        }
        case tensor::Precision::kInt8: {
          // Same integer dot + f32 scale application shape as the serving
          // kernels; exact i32 accumulation, one rounding per scale.
          const std::int8_t* b_row = herb_bipar_s8_.data() + j * d;
          std::int32_t acc = 0;
          for (std::size_t c = 0; c < d; ++c) {
            acc += static_cast<std::int32_t>(act_q[c]) *
                   static_cast<std::int32_t>(b_row[c]);
          }
          bipar = static_cast<double>((static_cast<float>(acc) * act_scale) *
                                      herb_bipar_scales_[j]);
          break;
        }
      }
      herb.bipar = bipar;
      herb.synergy = audit::ExactResidual(herb.score, herb.bipar, &herb.exact);
    } else {
      herb.bipar = herb.score;
      herb.synergy = 0.0;
    }

    // Pooling axis: linearize through the frozen ReLU gates (audit.h), so
    // score == sum(per_symptom) + pool_bias up to the anchored residual.
    if (has_si_mlp_) {
      for (std::size_t c = 0; c < d; ++c) {
        gated[c] = act[c] > 0.0 ? herb_at(j, c) : 0.0;
      }
      for (std::size_t k = 0; k < d; ++k) {
        double w = 0.0;
        for (std::size_t c = 0; c < d; ++c) w += weight_at(k, c) * gated[c];
        w_vec[k] = w;
      }
      double pool_bias = 0.0;
      for (std::size_t c = 0; c < d; ++c) pool_bias += bias_at(c) * gated[c];
      herb.pool_bias = pool_bias;
    } else {
      for (std::size_t c = 0; c < d; ++c) w_vec[c] = herb_at(j, c);
      herb.pool_bias = 0.0;
    }
    const double inv = 1.0 / static_cast<double>(ids.size());
    herb.per_symptom.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      double dot = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        dot += symptom_at(ids[i], c) * w_vec[c];
      }
      herb.per_symptom[i] = inv * dot;
    }
    double fold = 0.0;
    for (double v : herb.per_symptom) fold += v;
    fold += herb.pool_bias;
    bool pool_exact = true;
    herb.pool_residual = audit::ExactResidual(herb.score, fold, &pool_exact);
    herb.exact = herb.exact && pool_exact;
    out.herbs.push_back(std::move(herb));
  }
  return out;
}

}  // namespace serve
}  // namespace smgcn
