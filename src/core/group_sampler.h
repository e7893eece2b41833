// Grouping layer (§III-A): re-assembles limited labeled data into training
// groups g = ⟨x⁺ᵢ, x⁺ⱼ, x⁻₁, …, x⁻ₖ⟩ — one anchor positive, one paired
// positive, and k negatives. The combinatorial space has
// O(|D⁺|²·|D⁻|ᵏ) groups, so even a few hundred labeled examples yield an
// effectively unlimited stream of training instances.

#ifndef RLL_CORE_GROUP_SAMPLER_H_
#define RLL_CORE_GROUP_SAMPLER_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace rll::core {

/// Indices into the training set (not feature values) — groups stay cheap
/// and the same sampler serves any feature matrix.
struct Group {
  size_t anchor;                  // x⁺ᵢ
  size_t positive;                // x⁺ⱼ, distinct from anchor
  std::vector<size_t> negatives;  // x⁻₁ … x⁻ₖ, distinct
};

struct GroupSamplerOptions {
  /// k — number of negatives per group. Table II sweeps {2, 3, 4, 5};
  /// the paper's best value (and our default) is 3.
  size_t negatives_per_group = 3;
};

class GroupSampler {
 public:
  /// Partitions example indices by the given (inferred, not expert) labels:
  /// label 1 → positive pool, label 0 → negative pool, any other value →
  /// excluded (used to hold out validation examples). Construction always
  /// succeeds; Sample reports insufficient data.
  GroupSampler(const std::vector<int>& labels, GroupSamplerOptions options);

  /// Draws `count` independent groups. Fails when there are fewer than two
  /// positives or fewer than k negatives.
  Result<std::vector<Group>> Sample(size_t count, Rng* rng) const;

  /// Seed-split variant: draws from a private Rng(seed). Concurrent tasks
  /// each pass their own SplitSeed-derived seed, so no mutable stream is
  /// shared and results do not depend on task interleaving.
  Result<std::vector<Group>> Sample(size_t count, uint64_t seed) const;

  size_t num_positives() const { return positives_.size(); }
  size_t num_negatives() const { return negatives_.size(); }
  const GroupSamplerOptions& options() const { return options_; }

 private:
  GroupSamplerOptions options_;
  std::vector<size_t> positives_;
  std::vector<size_t> negatives_;
};

}  // namespace rll::core

#endif  // RLL_CORE_GROUP_SAMPLER_H_
