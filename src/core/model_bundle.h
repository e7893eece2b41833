// Deployable model bundle: the standardizer statistics and the trained
// encoder in one file, so serving code cannot accidentally pair a model
// with the wrong preprocessing.
//
// Format v2: one header line recording the architecture, then matrices in
// tensor/serialize text format —
//   rll-bundle v2 dims=16,64,32 hidden=tanh output=tanh layer_norm=0 embed_dim=32
//   mean (1×dim), stddev (1×dim), encoder parameters in Parameters() order
// The header makes the format self-describing: a bundle trained with a
// non-default activation (or with LayerNorm) round-trips exactly instead
// of silently loading as tanh. It also fixes the shape of every matrix
// that follows, so the loader checks each matrix header against it before
// reading, and a file holding anything more is rejected.

#ifndef RLL_CORE_MODEL_BUNDLE_H_
#define RLL_CORE_MODEL_BUNDLE_H_

#include <memory>
#include <string>

#include "core/rll_model.h"
#include "data/standardize.h"

namespace rll::core {

class ModelBundle {
 public:
  /// Packages a fitted standardizer and a trained model. Both are copied.
  static Result<ModelBundle> Create(const data::Standardizer& standardizer,
                                    const RllModel& model, Rng* rng);

  /// Writes the bundle in the v2 headered format to a temporary file in
  /// path's directory, then renames it over `path`: a concurrent Load sees
  /// the old bundle or the new one, never a partial file. On an error the
  /// old file stays in place and no temporary file is left behind.
  Status Save(const std::string& path) const;

  /// Reads a v2 bundle, reconstructing the encoder exactly from the header.
  /// Returns an error, rather than aborting, on a malformed header, a
  /// header declaring more parameters than the file holds, a matrix whose
  /// shape differs from the header's, or data after the last parameter.
  static Result<ModelBundle> Load(const std::string& path);

  /// Standardizes raw features with the stored statistics and embeds them.
  Result<Matrix> Embed(const Matrix& raw_features) const;

  size_t input_dim() const { return model_->input_dim(); }
  size_t embedding_dim() const { return model_->embedding_dim(); }
  const RllModel& model() const { return *model_; }
  const data::Standardizer& standardizer() const { return standardizer_; }

 private:
  ModelBundle() = default;

  data::Standardizer standardizer_;
  std::shared_ptr<RllModel> model_;
};

}  // namespace rll::core

#endif  // RLL_CORE_MODEL_BUNDLE_H_
