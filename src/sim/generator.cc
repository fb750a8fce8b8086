#include "src/sim/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/util/discrete_distribution.h"
#include "src/util/logging.h"

namespace incentag {
namespace sim {

namespace {

// Named case-study resources (paper Tables VI and VII). Year lengths and
// bias prefixes are chosen so that, like the paper's subject pages, the
// two-aspect pages are under-tagged and misleading at the January cut but
// recover under a good allocation strategy.
struct ShowcaseSpec {
  const char* url;
  const char* primary;
  const char* secondary;  // nullptr = single aspect
  double popularity_scale;  // multiplier on the median popularity
  int64_t year_length;
  int64_t early_bias_posts;
  int64_t january_hint;     // -1 = proportional cut
  double secondary_weight;  // share of the converged rfd; the paper's
                            // subjects end up dominated by their primary
                            // aspect (all ideal top-10 hits are primary)
};

const ShowcaseSpec kShowcases[] = {
    {"www.myphysicslab.example", "physics", "java", 0.6, 500, 12, 10, 0.18},
    {"dvdvideosoft.example", "video-editing", "video-sharing", 0.6, 450, 12,
     10, 0.18},
    {"slashup.example", "photo-editing", "photo-sharing", 0.5, 400, 10, 8,
     0.18},
    {"bdonline.example", "architecture", "news", 0.5, 400, 10, 8, 0.18},
    {"espn.example", "sports", nullptr, 40.0, 3500, 0, -1, 0.0},
};

}  // namespace

util::Result<Corpus> Corpus::Generate(const CorpusConfig& config) {
  if (config.num_resources < 1) {
    return util::Status::InvalidArgument("num_resources must be >= 1");
  }
  if (config.year_posts_min < 2 ||
      config.year_posts_max < config.year_posts_min) {
    return util::Status::InvalidArgument("bad year post bounds");
  }
  if (config.max_post_size < 1) {
    return util::Status::InvalidArgument("max_post_size must be >= 1");
  }
  if (config.two_aspect_prob < 0.0 || config.two_aspect_prob > 1.0 ||
      config.early_bias_strength < 0.0 || config.early_bias_strength > 1.0) {
    return util::Status::InvalidArgument("bad probability parameter");
  }
  // MixDistributions skips a part whose share is not positive, so no mix
  // may leave an aspect such a share, and a resource made of own tags alone
  // could have none to sample.
  if (config.resource_own_tags < 0) {
    return util::Status::InvalidArgument("resource_own_tags must be >= 0");
  }
  if (config.resource_own_weight < 0.0 || config.resource_own_weight >= 1.0) {
    return util::Status::InvalidArgument(
        "resource_own_weight must be in [0, 1)");
  }
  if (config.secondary_aspect_weight < 0.0 ||
      config.secondary_aspect_weight >= 1.0 ||
      config.resource_own_weight + config.secondary_aspect_weight >= 1.0) {
    return util::Status::InvalidArgument(
        "secondary_aspect_weight must be in [0, 1) and leave the primary "
        "aspect a positive share");
  }
  if (config.early_bias_fraction < 0.0 || config.early_bias_fraction > 1.0) {
    return util::Status::InvalidArgument(
        "early_bias_fraction must be in [0, 1]");
  }
  // The early mix gives the secondary aspect 0.95 - resource_own_weight.
  if ((config.two_aspect_prob > 0.0 || config.add_showcases) &&
      config.resource_own_weight >= 0.95) {
    return util::Status::InvalidArgument(
        "resource_own_weight must be < 0.95 when resources have two aspects");
  }
  if (config.add_showcases) {
    for (const ShowcaseSpec& spec : kShowcases) {
      if (config.resource_own_weight + spec.secondary_weight >= 1.0) {
        return util::Status::InvalidArgument(
            "resource_own_weight leaves a showcase page's primary aspect no "
            "share");
      }
    }
  }

  Corpus corpus;
  corpus.config_ = config;
  util::Rng rng(util::MixSeeds(config.seed, 0xC0FFEEull));
  ProfileSet profiles(corpus.hierarchy_, config.profile, &corpus.vocab_,
                      &rng);

  const size_t n = static_cast<size_t>(config.num_resources);
  corpus.resources_.reserve(n);
  corpus.spans_.reserve(n);
  corpus.post_size_sampler_ = std::make_unique<util::ZipfSampler>(
      static_cast<size_t>(config.max_post_size), config.post_size_skew);

  const std::vector<CategoryId>& leaves = corpus.hierarchy_.leaves();
  const size_t num_showcases =
      config.add_showcases ? std::size(kShowcases) : 0;

  // Popularity by rank with jitter. Ranks are assigned to the non-showcase
  // resources in a random order so category and popularity are independent.
  std::vector<size_t> ranks(n);
  for (size_t i = 0; i < n; ++i) ranks[i] = i;
  util::Shuffle(&ranks, &rng);

  // Median popularity of the rank curve, used to scale showcases.
  const double median_pop =
      std::pow(static_cast<double>(n / 2 + 1), -config.popularity_skew);

  for (size_t i = 0; i < n; ++i) {
    if (i < num_showcases) {
      const ShowcaseSpec& spec = kShowcases[i];
      util::Result<CategoryId> primary =
          corpus.hierarchy_.FindLeaf(spec.primary);
      assert(primary.ok());
      CategoryId secondary = primary.value();
      if (spec.secondary != nullptr) {
        util::Result<CategoryId> sec =
            corpus.hierarchy_.FindLeaf(spec.secondary);
        assert(sec.ok());
        secondary = sec.value();
      }
      corpus.BuildResource(primary.value(), secondary,
                           median_pop * spec.popularity_scale,
                           spec.year_length, spec.early_bias_posts,
                           spec.january_hint, spec.secondary_weight,
                           spec.url, profiles);
      continue;
    }

    // Regular resource.
    const size_t rank = ranks[i];
    const double jitter =
        std::exp(config.year_jitter_sigma * rng.NextGaussian());
    const double popularity =
        std::pow(static_cast<double>(rank + 1), -config.popularity_skew) *
        jitter;
    const double raw_year =
        static_cast<double>(config.year_posts_max) * popularity;
    const int64_t year_length = std::clamp<int64_t>(
        static_cast<int64_t>(std::llround(raw_year)), config.year_posts_min,
        config.year_posts_max);

    CategoryId primary = leaves[rng.NextBounded(leaves.size())];
    CategoryId secondary = primary;
    int64_t early_bias_posts = 0;
    if (rng.NextBool(config.two_aspect_prob) && leaves.size() > 1) {
      do {
        secondary = leaves[rng.NextBounded(leaves.size())];
      } while (secondary == primary);
      early_bias_posts = static_cast<int64_t>(
          std::llround(config.early_bias_fraction *
                       static_cast<double>(year_length)));
    }

    const Category& cat = corpus.hierarchy_.category(primary);
    std::string url = cat.short_name + "-" + std::to_string(i) + ".example";
    corpus.BuildResource(primary, secondary, popularity, year_length,
                         early_bias_posts, /*january_hint=*/-1,
                         config.secondary_aspect_weight, std::move(url),
                         profiles);
  }
  corpus.tags_.shrink_to_fit();
  corpus.cdf_.shrink_to_fit();
  return corpus;
}

void Corpus::BuildResource(CategoryId primary, CategoryId secondary,
                           double popularity, int64_t year_length,
                           int64_t early_bias_posts, int64_t january_hint,
                           double secondary_weight, std::string url,
                           const ProfileSet& profiles) {
  ResourceInfo info;
  info.url = std::move(url);
  info.primary = primary;
  info.secondary = secondary;
  info.two_aspect = secondary != primary;
  info.popularity = popularity;
  info.year_length = year_length;
  info.early_bias_posts = info.two_aspect ? early_bias_posts : 0;
  info.january_hint = january_hint;

  // Resource-specific tags make every resource distinguishable even within
  // a category.
  TagDistribution own;
  for (int t = 0; t < config_.resource_own_tags; ++t) {
    core::TagId tag = vocab_.Intern(info.url + "#" + std::to_string(t));
    own.emplace_back(tag, 1.0 / (1.0 + t));
  }
  NormalizeDistribution(&own);

  const TagDistribution& primary_profile = profiles.profile(primary);
  const TagDistribution& secondary_profile = profiles.profile(secondary);

  ResourceSpans spans;
  if (info.two_aspect) {
    const double sec = secondary_weight;
    const double prim = 1.0 - config_.resource_own_weight - sec;
    spans.converged = AddSpan(MixDistributions(
        {{&primary_profile, prim},
         {&secondary_profile, sec},
         {&own, config_.resource_own_weight}}));
    // Early posts see the secondary aspect as dominant.
    spans.early = AddSpan(MixDistributions(
        {{&primary_profile, 0.05},
         {&secondary_profile, 0.95 - config_.resource_own_weight},
         {&own, config_.resource_own_weight}}));
  } else {
    const double prim = 1.0 - config_.resource_own_weight;
    spans.converged = AddSpan(MixDistributions(
        {{&primary_profile, prim}, {&own, config_.resource_own_weight}}));
    spans.early = spans.converged;
  }
  resources_.push_back(std::move(info));
  spans_.push_back(spans);
}

Corpus::SamplingSpan Corpus::AddSpan(const TagDistribution& dist) {
  INCENTAG_CHECK(dist.size() <= UINT32_MAX - tags_.size());
  SamplingSpan span;
  span.begin = static_cast<uint32_t>(tags_.size());
  span.size = static_cast<uint32_t>(dist.size());
  for (const auto& [tag, w] : dist) {
    assert(w >= 0.0);
    span.total += w;
    tags_.push_back(tag);
    cdf_.push_back(span.total);
  }
  assert(span.total > 0.0);
  return span;
}

TagDistribution Corpus::Distribution(core::ResourceId i, bool early) const {
  assert(i < spans_.size());
  const SamplingSpan& span = early ? spans_[i].early : spans_[i].converged;
  TagDistribution dist;
  dist.reserve(span.size);
  double previous = 0.0;
  for (uint32_t e = span.begin; e < span.begin + span.size; ++e) {
    dist.emplace_back(tags_[e], (cdf_[e] - previous) / span.total);
    previous = cdf_[e];
  }
  return dist;
}

core::Post Corpus::SamplePost(core::ResourceId i, int64_t k) const {
  core::Post post;
  AppendPostTags(i, k, &post.tags);
  return post;
}

void Corpus::AppendPostTags(core::ResourceId i, int64_t k,
                            std::vector<core::TagId>* tags) const {
  assert(i < resources_.size());
  assert(k >= 0);
  const ResourceInfo& info = resources_[i];
  util::Rng rng(util::MixSeeds(util::MixSeeds(config_.seed, 0xF00Dull + i),
                               static_cast<uint64_t>(k)));

  // Decaying early-aspect bias.
  bool use_early = false;
  if (info.early_bias_posts > 0 && k < info.early_bias_posts) {
    const double progress =
        static_cast<double>(k) / static_cast<double>(info.early_bias_posts);
    use_early =
        rng.NextBool(config_.early_bias_strength * (1.0 - progress));
  }
  const SamplingSpan& span = use_early ? spans_[i].early : spans_[i].converged;
  const std::span<const double> cdf(cdf_.data() + span.begin, span.size);

  const size_t want = std::min<size_t>(span.size,
                                       1 + post_size_sampler_->Sample(&rng));
  const auto first = static_cast<std::ptrdiff_t>(tags->size());
  // Sample without replacement by rejection; bounded attempts keep the
  // sampler deterministic-time even for degenerate distributions.
  const size_t max_attempts = 8 * want + 8;
  for (size_t attempt = 0, drawn = 0; attempt < max_attempts && drawn < want;
       ++attempt) {
    const core::TagId tag =
        tags_[span.begin + util::SampleCumulative(cdf, span.total, &rng)];
    if (std::find(tags->begin() + first, tags->end(), tag) == tags->end()) {
      tags->push_back(tag);
      ++drawn;
    }
  }
  assert(tags->size() > static_cast<size_t>(first));
  std::sort(tags->begin() + first, tags->end());
}

std::vector<core::Post> Corpus::MaterializeSequence(core::ResourceId i,
                                                    int64_t count) const {
  std::vector<core::Post> seq;
  seq.reserve(static_cast<size_t>(count));
  for (int64_t k = 0; k < count; ++k) seq.push_back(SamplePost(i, k));
  return seq;
}

util::Result<core::ResourceId> Corpus::FindUrl(std::string_view url) const {
  for (core::ResourceId i = 0; i < resources_.size(); ++i) {
    if (resources_[i].url == url) return i;
  }
  return util::Status::NotFound("no resource with url " + std::string(url));
}

}  // namespace sim
}  // namespace incentag
