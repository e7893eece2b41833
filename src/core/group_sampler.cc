#include "core/group_sampler.h"

#include "common/strings.h"
#include "obs/metrics.h"

namespace rll::core {

GroupSampler::GroupSampler(const std::vector<int>& labels,
                           GroupSamplerOptions options)
    : options_(options) {
  RLL_CHECK_GT(options.negatives_per_group, 0u);
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 1) {
      positives_.push_back(i);
    } else if (labels[i] == 0) {
      negatives_.push_back(i);
    }
    // Other values (e.g. -1 for held-out examples) are excluded.
  }
}

Result<std::vector<Group>> GroupSampler::Sample(size_t count,
                                                Rng* rng) const {
  const size_t k = options_.negatives_per_group;
  if (positives_.size() < 2 || negatives_.size() < k) {
    obs::MetricRegistry::Global()
        .GetCounter("rll_groups_rejected_total")
        ->Increment(count);
    if (positives_.size() < 2) {
      return Status::FailedPrecondition(
          "grouping needs at least two positive examples");
    }
    return Status::FailedPrecondition(StrFormat(
        "grouping needs at least k=%zu negatives, have %zu", k,
        negatives_.size()));
  }
  std::vector<Group> groups;
  groups.reserve(count);
  for (size_t g = 0; g < count; ++g) {
    Group group;
    const size_t a = static_cast<size_t>(rng->UniformInt(positives_.size()));
    // Paired positive distinct from the anchor: shift by a nonzero offset.
    const size_t offset =
        1 + static_cast<size_t>(rng->UniformInt(positives_.size() - 1));
    const size_t p = (a + offset) % positives_.size();
    group.anchor = positives_[a];
    group.positive = positives_[p];
    group.negatives.reserve(k);
    for (size_t idx : rng->SampleWithoutReplacement(negatives_.size(), k)) {
      group.negatives.push_back(negatives_[idx]);
    }
    groups.push_back(std::move(group));
  }
  // Bulk counter updates per call (not per group) keep the registry off the
  // per-group path; one Sample serves a whole epoch.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("rll_groups_sampled_total")->Increment(count);
  registry.GetCounter("rll_group_positives_drawn_total")
      ->Increment(2 * count);
  registry.GetCounter("rll_group_negatives_drawn_total")
      ->Increment(k * count);
  return groups;
}

Result<std::vector<Group>> GroupSampler::Sample(size_t count,
                                                uint64_t seed) const {
  Rng rng(seed);
  return Sample(count, &rng);
}

}  // namespace rll::core
