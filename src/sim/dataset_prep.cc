#include "src/sim/dataset_prep.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

#include "src/util/random.h"

namespace incentag {
namespace sim {

namespace {

// Size of the "January" prefix for a resource with `year_length` posts.
int64_t JanuaryCut(int64_t year_length, const PrepConfig& config,
                   util::Rng* rng) {
  const double jitter =
      std::exp(config.january_jitter_sigma * rng->NextGaussian());
  int64_t cut = static_cast<int64_t>(std::llround(
      config.january_fraction * static_cast<double>(year_length) * jitter));
  return std::clamp<int64_t>(cut, 1, year_length - 1);
}

}  // namespace

util::Result<PreparedDataset> PrepareFromCorpus(const Corpus& corpus,
                                                const PrepConfig& config) {
  if (config.january_fraction <= 0.0 || config.january_fraction >= 1.0) {
    return util::Status::InvalidArgument(
        "january_fraction must be in (0, 1)");
  }
  PreparedDataset out;
  util::Rng rng(util::MixSeeds(config.seed, 0x9A17ull));

  for (core::ResourceId i = 0; i < corpus.num_resources(); ++i) {
    ++out.scanned;
    const ResourceInfo& info = corpus.resource(i);
    // Sample the year once; the stability scan reads it as it grows.
    core::PostSequence year;
    year.reserve(static_cast<size_t>(info.year_length));
    core::StabilityDetector detector(config.stability);
    for (int64_t k = 0; k < info.year_length; ++k) {
      year.push_back(corpus.SamplePost(i, k));
      if (!detector.IsStable()) detector.AddPost(year.back());
    }
    if (!detector.IsStable()) {
      ++out.dropped_unstable;
      continue;
    }
    const int64_t cut =
        info.january_hint > 0
            ? std::clamp<int64_t>(info.january_hint, 1, info.year_length - 1)
            : JanuaryCut(info.year_length, config, &rng);
    const auto january_end = year.begin() + cut;
    out.initial_posts.emplace_back(std::make_move_iterator(year.begin()),
                                   std::make_move_iterator(january_end));
    out.future_posts.emplace_back(std::make_move_iterator(january_end),
                                  std::make_move_iterator(year.end()));
    const int64_t stable_point = detector.stable_point();
    out.references.push_back(core::ResourceReference{
        std::move(detector).stable_rfd(), stable_point});
    out.year_length.push_back(info.year_length);
    out.popularity.push_back(info.popularity);
    out.urls.push_back(info.url);
    out.source_ids.push_back(i);
    if (config.max_keep > 0 &&
        static_cast<int64_t>(out.size()) >= config.max_keep) {
      break;
    }
  }
  if (out.size() == 0) {
    return util::Status::FailedPrecondition(
        "no resource reached stability; relax (omega_s, tau_s) or increase "
        "year volumes");
  }
  return out;
}

util::Result<PreparedDataset> PrepareFromSequences(
    const std::vector<core::PostSequence>& year_posts,
    const std::vector<std::string>& urls, const PrepConfig& config) {
  if (config.january_fraction <= 0.0 || config.january_fraction >= 1.0) {
    return util::Status::InvalidArgument(
        "january_fraction must be in (0, 1)");
  }
  if (!urls.empty() && urls.size() != year_posts.size()) {
    return util::Status::InvalidArgument(
        "urls and year_posts sizes must match");
  }
  PreparedDataset out;
  util::Rng rng(util::MixSeeds(config.seed, 0x9A17ull));

  for (size_t i = 0; i < year_posts.size(); ++i) {
    ++out.scanned;
    const core::PostSequence& year = year_posts[i];
    if (year.size() < 2) {
      ++out.dropped_unstable;
      continue;
    }
    core::StabilityDetector detector(config.stability);
    for (const core::Post& post : year) {
      if (detector.AddPost(post)) break;
    }
    if (!detector.IsStable()) {
      ++out.dropped_unstable;
      continue;
    }
    const int64_t year_length = static_cast<int64_t>(year.size());
    const int64_t cut = JanuaryCut(year_length, config, &rng);
    out.initial_posts.emplace_back(year.begin(), year.begin() + cut);
    out.future_posts.emplace_back(year.begin() + cut, year.end());
    out.references.push_back(core::ResourceReference{
        detector.stable_rfd(), detector.stable_point()});
    out.year_length.push_back(year_length);
    out.popularity.push_back(static_cast<double>(year_length));
    out.urls.push_back(urls.empty() ? "resource-" + std::to_string(i)
                                    : urls[i]);
    out.source_ids.push_back(static_cast<core::ResourceId>(i));
    if (config.max_keep > 0 &&
        static_cast<int64_t>(out.size()) >= config.max_keep) {
      break;
    }
  }
  if (out.size() == 0) {
    return util::Status::FailedPrecondition(
        "no resource reached stability; relax (omega_s, tau_s)");
  }
  return out;
}

util::Status ExtendFuture(const Corpus& corpus, double multiplier,
                          PreparedDataset* dataset) {
  if (multiplier < 1.0) {
    return util::Status::InvalidArgument("multiplier must be >= 1");
  }
  for (size_t i = 0; i < dataset->size(); ++i) {
    const core::ResourceId source = dataset->source_ids[i];
    if (source >= corpus.num_resources()) {
      return util::Status::InvalidArgument(
          "dataset was not prepared from this corpus");
    }
    const int64_t initial =
        static_cast<int64_t>(dataset->initial_posts[i].size());
    const int64_t total = static_cast<int64_t>(
        std::llround(static_cast<double>(dataset->year_length[i]) *
                     multiplier));
    core::PostSequence extended;
    extended.reserve(static_cast<size_t>(total - initial));
    for (int64_t k = initial; k < total; ++k) {
      extended.push_back(corpus.SamplePost(source, k));
    }
    dataset->future_posts[i] = std::move(extended);
  }
  return util::Status::OK();
}

}  // namespace sim
}  // namespace incentag
