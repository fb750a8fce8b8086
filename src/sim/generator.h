// Synthetic del.icio.us-style corpus generator.
//
// The paper's evaluation runs on the Wetzker et al. crawl of all del.icio.us
// posts of 2007, which cannot be redistributed. This generator produces a
// corpus with the three statistical properties that evaluation relies on:
//
//  1. Convergence: each resource has a latent tag distribution; as posts
//     accumulate, its empirical rfd converges, so practically-stable rfds
//     and stable points (Definition 8) exist, with resource-dependent
//     stable points (more "multidimensional" resources stabilise later).
//  2. Skew: resource popularity is Zipf-distributed and drives both the
//     yearly post volume and the crowd's free choices, recreating Figure
//     1(b)'s power law and FC's wasted posts.
//  3. Aspect drift: some resources have two topical aspects whose early
//     posts over-represent one aspect (the paper's myphysicslab page was
//     initially tagged as a Java page), so under-tagged rfds are
//     *misleading*, not just noisy — the effect behind Tables VI/VII.
//
// Determinism: post k of resource i is a pure function of
// (corpus seed, i, k), so any prefix can be re-materialised cheaply and the
// offline-optimal DP sees exactly the future the engine will replay.
//
// Concurrency: a generated Corpus is immutable. Every const member —
// SamplePost, MaterializeSequence, resource(), num_resources() and the
// rest — reads shared state only and is safe to call concurrently from
// any number of threads; dataset preparation scans resources in parallel
// on this contract.
#ifndef INCENTAG_SIM_GENERATOR_H_
#define INCENTAG_SIM_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/tag_vocabulary.h"
#include "src/core/types.h"
#include "src/sim/tag_profile.h"
#include "src/sim/topic_hierarchy.h"
#include "src/util/discrete_distribution.h"
#include "src/util/random.h"
#include "src/util/status.h"
#include "src/util/zipf.h"

namespace incentag {
namespace sim {

struct CorpusConfig {
  // Number of resources to generate (before dataset preparation filters).
  int64_t num_resources = 1200;
  uint64_t seed = 42;

  ProfileConfig profile;

  // Popularity / yearly volume. year_length ~ clamp(max / rank^skew * jitter).
  double popularity_skew = 0.85;
  int64_t year_posts_min = 40;
  int64_t year_posts_max = 4000;
  double year_jitter_sigma = 0.30;  // lognormal sigma on the year length

  // Post sizes: 1 + Zipf(max_post_size, post_size_skew).
  int max_post_size = 4;
  double post_size_skew = 1.8;

  // Resource latent distribution: category profile + own tags.
  int resource_own_tags = 4;
  double resource_own_weight = 0.15;

  // Two-aspect resources (primary + secondary category).
  double two_aspect_prob = 0.25;
  double secondary_aspect_weight = 0.35;

  // Early-aspect bias: the first ~early_bias_fraction * year posts of a
  // two-aspect resource over-sample the secondary aspect with probability
  // decaying linearly from early_bias_strength to 0.
  double early_bias_fraction = 0.20;
  double early_bias_strength = 0.95;

  // Inject the five named case-study resources of Tables VI/VII.
  bool add_showcases = true;
};

// Static description of one generated resource.
struct ResourceInfo {
  std::string url;
  CategoryId primary = 0;
  CategoryId secondary = 0;  // == primary for single-aspect resources
  bool two_aspect = false;
  double popularity = 0.0;   // relative weight; drives FC and year volume
  int64_t year_length = 0;   // posts received during the simulated year
  int64_t early_bias_posts = 0;  // length of the biased prefix (0 = none)
  // Fixed "January" size used by dataset preparation instead of the
  // proportional cut; -1 = derive from year_length. Showcase pages use it
  // to start under-tagged despite a long year, like the paper's subjects.
  int64_t january_hint = -1;
  TagDistribution true_dist;   // converged latent distribution
  TagDistribution early_dist;  // biased distribution for the early prefix
};

class Corpus {
 public:
  // Generates a corpus. Returns InvalidArgument for nonsensical configs.
  static util::Result<Corpus> Generate(const CorpusConfig& config);

  const CorpusConfig& config() const { return config_; }
  const TopicHierarchy& hierarchy() const { return hierarchy_; }
  const core::TagVocabulary& vocab() const { return vocab_; }
  size_t num_resources() const { return resources_.size(); }
  const ResourceInfo& resource(core::ResourceId i) const {
    return resources_[i];
  }

  // The k-th (0-based) post of resource i. Deterministic in (seed, i, k).
  core::Post SamplePost(core::ResourceId i, int64_t k) const;

  // Appends the tags of SamplePost(i, k), sorted and distinct, to `tags`:
  // the same post without a vector of its own.
  void AppendPostTags(core::ResourceId i, int64_t k,
                      std::vector<core::TagId>* tags) const;

  // Materialises posts 0..count-1 of resource i.
  std::vector<core::Post> MaterializeSequence(core::ResourceId i,
                                              int64_t count) const;

  // Finds a resource by URL (the showcase pages), NotFound otherwise.
  util::Result<core::ResourceId> FindUrl(std::string_view url) const;

 private:
  Corpus() : hierarchy_(TopicHierarchy::BuildDefault()) {}

  void BuildResource(CategoryId primary, CategoryId secondary,
                     double popularity, int64_t year_length,
                     int64_t early_bias_posts, int64_t january_hint,
                     double secondary_weight, std::string url,
                     const ProfileSet& profiles);

  CorpusConfig config_;
  TopicHierarchy hierarchy_;
  core::TagVocabulary vocab_;
  std::vector<ResourceInfo> resources_;
  // Prebuilt samplers, index-aligned with resources_.
  std::vector<util::DiscreteDistribution> true_samplers_;
  std::vector<util::DiscreteDistribution> early_samplers_;
  std::unique_ptr<util::ZipfSampler> post_size_sampler_;
};

}  // namespace sim
}  // namespace incentag

#endif  // INCENTAG_SIM_GENERATOR_H_
