#include "src/sim/dataset_prep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace incentag {
namespace sim {

namespace {

// Resources a scan worker takes at a time. Small, because resource volume
// is Zipf-skewed and the heaviest resources come first: one chunk of the
// head must not hold a large share of the corpus' posts.
constexpr size_t kScanChunk = 8;

// One resource's sampled posts, laid out as in core::PostStore: post p
// holds tags[bounds[p], bounds[p + 1]). Scan workers fill it; the calling
// thread appends the kept posts to the dataset's stores, so those are
// allocated by one thread (and one malloc arena) whatever the thread
// count.
struct SampledYear {
  std::vector<core::TagId> tags;
  std::vector<uint32_t> bounds;
  // Where the year's posts reached stability (at least omega >= 2); 0 for
  // a dropped year.
  int64_t stable_point = 0;
  core::RfdVector stable_rfd;

  // Every sampled post; none when the year was dropped.
  core::PostSequence Posts() const {
    if (bounds.empty()) return {};
    return core::PostSequence(tags.data(), bounds);
  }
};

// Samples resource i's year straight into the year's tag buffer, while a
// detector reads the posts until it reports stable.
SampledYear SampleFlat(const Corpus& corpus, core::ResourceId i,
                       const core::StabilityParams& stability) {
  const int64_t year_length = corpus.resource(i).year_length;
  SampledYear year;
  year.bounds.reserve(static_cast<size_t>(year_length) + 1);
  year.bounds.push_back(0);
  core::StabilityDetector detector(stability);
  for (int64_t k = 0; k < year_length; ++k) {
    const size_t first = year.tags.size();
    corpus.AppendPostTags(i, k, &year.tags);
    year.bounds.push_back(static_cast<uint32_t>(year.tags.size()));
    if (!detector.IsStable()) {
      detector.AddPost(std::span<const core::TagId>(year.tags).subspan(first));
    }
  }
  // An unstable year is dropped: keep none of its posts.
  if (!detector.IsStable()) return {};
  year.stable_point = detector.stable_point();
  year.stable_rfd = std::move(detector).stable_rfd();
  return year;
}

// Runs scan(r) for every r in [0, count), kScanChunk resources at a time
// taken in index order, on util::DefaultThreadCount() threads: the calling
// thread and one fewer workers. The calling thread also runs keep(r) in
// index order as each chunk completes, and scans a chunk itself while the
// next one to keep is still in progress. keep returning false stops the
// scan once the workers finish the chunks they hold. scan(r) must touch
// only r's state; keep(r) may read it.
template <typename Scan, typename Keep>
void ScanThenKeep(size_t count, Scan scan, Keep keep) {
  const size_t chunks = (count + kScanChunk - 1) / kScanChunk;
  if (chunks == 0) return;
  auto chunk_end = [&](size_t c) {
    return std::min(count, (c + 1) * kScanChunk);
  };
  std::vector<std::atomic<bool>> scanned(chunks);
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> stop{false};
  // Scans the next unclaimed chunk; false once none is left.
  auto scan_next = [&] {
    const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return false;
    for (size_t r = c * kScanChunk; r < chunk_end(c); ++r) scan(r);
    scanned[c].store(true, std::memory_order_release);
    scanned[c].notify_one();
    return true;
  };
  // Declared last, so an exception from keep joins the workers before the
  // state they reference goes away.
  std::vector<std::jthread> workers;
  const size_t num_workers = std::min(
      chunks, static_cast<size_t>(util::DefaultThreadCount())) - 1;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed) && scan_next()) {
      }
    });
  }
  for (size_t c = 0; c < chunks; ++c) {
    while (!scanned[c].load(std::memory_order_acquire)) {
      if (!scan_next()) scanned[c].wait(false, std::memory_order_acquire);
    }
    for (size_t r = c * kScanChunk; r < chunk_end(c); ++r) {
      if (!keep(r)) {
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

// One scanned resource, as the keep step reads it.
struct ScannedResource {
  core::ResourceId id = 0;
  int64_t year_length = 0;
  // > 0: a fixed January size instead of the drawn one (see ResourceInfo).
  int64_t january_hint = -1;
  double popularity = 0.0;
  std::string url;
  int64_t stable_point = 0;  // 0: the scan never reached stability
  core::RfdVector stable_rfd;
};

// Size of the "January" prefix for a resource with `year_length` posts.
int64_t JanuaryCut(int64_t year_length, const PrepConfig& config,
                   util::Rng* rng) {
  const double jitter =
      std::exp(config.january_jitter_sigma * rng->NextGaussian());
  int64_t cut = static_cast<int64_t>(std::llround(
      config.january_fraction * static_cast<double>(year_length) * jitter));
  return std::clamp<int64_t>(cut, 1, year_length - 1);
}

// The dataset's two post stores while the keep step fills them.
struct KeptPosts {
  core::PostStore::Builder initial;
  core::PostStore::Builder future;
};

// The keep step of both entry points, called in resource order: counts the
// resource as scanned and either drops it as unstable or keeps it, cut at
// a January size drawn from the one sequential `rng`: posts [0, cut) of
// `year` become its January prefix, the rest its future. Returns false
// once config.max_keep resources are kept.
bool KeepResource(ScannedResource resource, core::PostSequence year,
                  const PrepConfig& config, util::Rng* rng, KeptPosts* posts,
                  PreparedDataset* out) {
  ++out->scanned;
  if (resource.stable_point == 0) {
    ++out->dropped_unstable;
    return true;
  }
  const int64_t cut =
      resource.january_hint > 0
          ? std::clamp<int64_t>(resource.january_hint, 1,
                                resource.year_length - 1)
          : JanuaryCut(resource.year_length, config, rng);
  posts->initial.AddPosts(year.Slice(0, static_cast<size_t>(cut)));
  posts->initial.EndResource();
  posts->future.AddPosts(year.Slice(static_cast<size_t>(cut), year.size()));
  posts->future.EndResource();
  out->references.push_back(core::ResourceReference{
      std::move(resource.stable_rfd), resource.stable_point});
  out->year_length.push_back(resource.year_length);
  out->popularity.push_back(resource.popularity);
  out->urls.push_back(std::move(resource.url));
  out->source_ids.push_back(resource.id);
  return config.max_keep <= 0 ||
         static_cast<int64_t>(out->references.size()) < config.max_keep;
}

util::Status ValidatePrepConfig(const PrepConfig& config) {
  if (util::Status s = core::ValidateOmega(config.stability.omega); !s.ok()) {
    return util::Status::InvalidArgument("stability " + s.message());
  }
  // Written so that NaN fails too.
  if (!(config.january_fraction > 0.0 && config.january_fraction < 1.0)) {
    return util::Status::InvalidArgument(
        "january_fraction must be in (0, 1)");
  }
  if (!std::isfinite(config.january_jitter_sigma)) {
    return util::Status::InvalidArgument(
        "january_jitter_sigma must be finite");
  }
  return util::Status::OK();
}

util::Rng CutRng(const PrepConfig& config) {
  return util::Rng(util::MixSeeds(config.seed, 0x9A17ull));
}

// Builds the kept posts into `out`'s stores; FailedPrecondition with
// `message` when no resource was kept.
util::Result<PreparedDataset> Finish(PreparedDataset out, KeptPosts posts,
                                     const char* message) {
  out.initial_posts = std::move(posts.initial).Build();
  out.future_posts = std::move(posts.future).Build();
  if (out.size() == 0) return util::Status::FailedPrecondition(message);
  return out;
}

}  // namespace

util::Result<PreparedDataset> PrepareFromCorpus(const Corpus& corpus,
                                                const PrepConfig& config) {
  if (util::Status s = ValidatePrepConfig(config); !s.ok()) return s;
  PreparedDataset out;
  KeptPosts posts;
  util::Rng rng = CutRng(config);
  std::vector<SampledYear> years(corpus.num_resources());
  ScanThenKeep(
      years.size(),
      [&](size_t i) {
        years[i] = SampleFlat(corpus, static_cast<core::ResourceId>(i),
                              config.stability);
      },
      [&](size_t i) {
        SampledYear year = std::exchange(years[i], {});
        const ResourceInfo& info =
            corpus.resource(static_cast<core::ResourceId>(i));
        return KeepResource(
            ScannedResource{.id = static_cast<core::ResourceId>(i),
                            .year_length = info.year_length,
                            .january_hint = info.january_hint,
                            .popularity = info.popularity,
                            .url = info.url,
                            .stable_point = year.stable_point,
                            .stable_rfd = std::move(year.stable_rfd)},
            year.Posts(), config, &rng, &posts, &out);
      });
  return Finish(std::move(out), std::move(posts),
                "no resource reached stability; relax (omega_s, tau_s) or "
                "increase year volumes");
}

util::Result<PreparedDataset> PrepareFromSequences(
    const core::PostStore& year_posts, const std::vector<std::string>& urls,
    const PrepConfig& config) {
  if (util::Status s = ValidatePrepConfig(config); !s.ok()) return s;
  if (!urls.empty() && urls.size() != year_posts.size()) {
    return util::Status::InvalidArgument(
        "urls and year_posts sizes must match");
  }
  PreparedDataset out;
  KeptPosts posts;
  util::Rng rng = CutRng(config);
  for (size_t i = 0; i < year_posts.size(); ++i) {
    const core::PostSequence year = year_posts[i];
    ScannedResource resource;
    resource.id = static_cast<core::ResourceId>(i);
    resource.year_length = static_cast<int64_t>(year.size());
    resource.popularity = static_cast<double>(year.size());
    resource.url = urls.empty() ? "resource-" + std::to_string(i) : urls[i];
    if (year.size() >= 2) {
      core::StabilityDetector detector(config.stability);
      for (core::PostView post : year) {
        if (detector.AddPost(post)) {
          resource.stable_point = detector.stable_point();
          resource.stable_rfd = std::move(detector).stable_rfd();
          break;
        }
      }
    }
    if (!KeepResource(std::move(resource), year, config, &rng, &posts,
                      &out)) {
      break;
    }
  }
  return Finish(std::move(out), std::move(posts),
                "no resource reached stability; relax (omega_s, tau_s)");
}

}  // namespace sim
}  // namespace incentag
