#include "src/sim/dataset_prep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/core/stability.h"
#include "src/sim/generator.h"

namespace incentag {
namespace sim {
namespace {

CorpusConfig TestCorpusConfig() {
  CorpusConfig config;
  config.num_resources = 80;
  config.seed = 11;
  config.year_posts_min = 60;
  config.year_posts_max = 600;
  return config;
}

PrepConfig TestPrepConfig() {
  PrepConfig config;
  config.stability = core::StabilityParams{10, 0.99};
  config.january_fraction = 0.25;
  return config;
}

class DatasetPrepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto corpus = Corpus::Generate(TestCorpusConfig());
    ASSERT_TRUE(corpus.ok());
    corpus_ = std::make_unique<Corpus>(std::move(corpus).value());
  }

  std::unique_ptr<Corpus> corpus_;
};

TEST_F(DatasetPrepTest, VectorsAreIndexAligned) {
  auto prep = PrepareFromCorpus(*corpus_, TestPrepConfig());
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  const PreparedDataset& ds = prep.value();
  EXPECT_GT(ds.size(), 0u);
  EXPECT_EQ(ds.initial_posts.size(), ds.size());
  EXPECT_EQ(ds.future_posts.size(), ds.size());
  EXPECT_EQ(ds.references.size(), ds.size());
  EXPECT_EQ(ds.year_length.size(), ds.size());
  EXPECT_EQ(ds.popularity.size(), ds.size());
  EXPECT_EQ(ds.urls.size(), ds.size());
  EXPECT_EQ(ds.source_ids.size(), ds.size());
  EXPECT_EQ(ds.scanned, 80);
  EXPECT_EQ(ds.scanned, static_cast<int64_t>(ds.size()) + ds.dropped_unstable);
}

TEST_F(DatasetPrepTest, SplitsPreserveTheYearSequence) {
  auto prep = PrepareFromCorpus(*corpus_, TestPrepConfig());
  ASSERT_TRUE(prep.ok());
  const PreparedDataset& ds = prep.value();
  for (size_t i = 0; i < ds.size(); ++i) {
    const int64_t init = static_cast<int64_t>(ds.initial_posts[i].size());
    const int64_t total =
        init + static_cast<int64_t>(ds.future_posts[i].size());
    EXPECT_EQ(total, ds.year_length[i]);
    EXPECT_GE(init, 1);
    EXPECT_LT(init, ds.year_length[i]);  // future is never empty
    // Prefix and suffix are exactly the corpus posts.
    const core::ResourceId src = ds.source_ids[i];
    for (int64_t k = 0; k < init; ++k) {
      ASSERT_EQ(ds.initial_posts[i][static_cast<size_t>(k)],
                corpus_->SamplePost(src, k));
    }
    for (size_t k = 0; k < std::min<size_t>(ds.future_posts[i].size(), 5);
         ++k) {
      ASSERT_EQ(ds.future_posts[i][k],
                corpus_->SamplePost(src, init + static_cast<int64_t>(k)));
    }
  }
}

TEST_F(DatasetPrepTest, ReferencesAreTrueStablePoints) {
  PrepConfig config = TestPrepConfig();
  auto prep = PrepareFromCorpus(*corpus_, config);
  ASSERT_TRUE(prep.ok());
  const PreparedDataset& ds = prep.value();
  for (size_t i = 0; i < std::min<size_t>(ds.size(), 10); ++i) {
    const core::ResourceId src = ds.source_ids[i];
    core::StabilityDetector detector(config.stability);
    int64_t k = 0;
    while (!detector.IsStable() && k < ds.year_length[i]) {
      detector.AddPost(corpus_->SamplePost(src, k++));
    }
    ASSERT_TRUE(detector.IsStable());
    EXPECT_EQ(detector.stable_point(), ds.references[i].stable_point);
    EXPECT_LE(ds.references[i].stable_point, ds.year_length[i]);
  }
}

TEST_F(DatasetPrepTest, StricterTauDropsMoreResources) {
  PrepConfig loose = TestPrepConfig();
  PrepConfig strict = TestPrepConfig();
  strict.stability.tau = 0.9999;
  auto loose_prep = PrepareFromCorpus(*corpus_, loose);
  auto strict_prep = PrepareFromCorpus(*corpus_, strict);
  ASSERT_TRUE(loose_prep.ok());
  if (strict_prep.ok()) {
    EXPECT_LE(strict_prep.value().size(), loose_prep.value().size());
  }
}

TEST_F(DatasetPrepTest, MaxKeepLimitsTheDataset) {
  PrepConfig config = TestPrepConfig();
  config.max_keep = 5;
  auto prep = PrepareFromCorpus(*corpus_, config);
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep.value().size(), 5u);
}

TEST_F(DatasetPrepTest, JanuaryCutTracksPopularity) {
  auto prep = PrepareFromCorpus(*corpus_, TestPrepConfig());
  ASSERT_TRUE(prep.ok());
  const PreparedDataset& ds = prep.value();
  // Find the largest- and smallest-year resources; the former must start
  // with more initial posts (the paper's "very unevenly distributed").
  size_t big = 0;
  size_t small = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.year_length[i] > ds.year_length[big]) big = i;
    if (ds.year_length[i] < ds.year_length[small]) small = i;
  }
  if (ds.year_length[big] > 4 * ds.year_length[small]) {
    EXPECT_GT(ds.initial_posts[big].size(),
              ds.initial_posts[small].size());
  }
}

TEST_F(DatasetPrepTest, RejectsBadJanuaryFraction) {
  for (double fraction :
       {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    PrepConfig config = TestPrepConfig();
    config.january_fraction = fraction;
    EXPECT_EQ(PrepareFromCorpus(*corpus_, config).status().code(),
              util::StatusCode::kInvalidArgument)
        << fraction;
  }
  PrepConfig config = TestPrepConfig();
  config.january_jitter_sigma = std::numeric_limits<double>::infinity();
  EXPECT_EQ(PrepareFromCorpus(*corpus_, config).status().code(),
            util::StatusCode::kInvalidArgument);
}

// An omega below Definition 7's minimum of 2 used to crash the stability
// scan (a zero-size MA ring for 1, a bad array length for 0).
TEST_F(DatasetPrepTest, RejectsBadStabilityOmega) {
  for (int omega : {-1, 0, 1, core::kMaxOmega + 1}) {
    PrepConfig config = TestPrepConfig();
    config.stability.omega = omega;
    auto prep = PrepareFromCorpus(*corpus_, config);
    EXPECT_EQ(prep.status().code(), util::StatusCode::kInvalidArgument)
        << "omega " << omega;
  }
}

TEST_F(DatasetPrepTest, MakeStreamReplaysFuturePosts) {
  auto prep = PrepareFromCorpus(*corpus_, TestPrepConfig());
  ASSERT_TRUE(prep.ok());
  const PreparedDataset& ds = prep.value();
  core::VectorPostStream stream = ds.MakeStream();
  ASSERT_EQ(stream.num_resources(), ds.size());
  // The stream reads the dataset's posts in place rather than copying.
  EXPECT_EQ(&stream.store(), &ds.future_posts);
  // Resource i's k-th future post is post c_i + k of its source
  // sequence, so drawing past the year from the corpus continues it.
  size_t checked = 0;
  for (size_t i = 0; i < std::min<size_t>(ds.size(), 5); ++i) {
    const auto c_i = static_cast<int64_t>(ds.initial_posts[i].size());
    for (size_t k = 0; k < std::min<size_t>(ds.future_posts[i].size(), 10);
         ++k, ++checked) {
      EXPECT_EQ(corpus_->SamplePost(ds.source_ids[i],
                                    c_i + static_cast<int64_t>(k)),
                ds.future_posts[i][k])
          << i << " " << k;
    }
  }
  EXPECT_GT(checked, 0u);
}

// 64-bit FNV-1a over every field of a prepared dataset, in a fixed order.
class DatasetDigest {
 public:
  explicit DatasetDigest(const PreparedDataset& ds) {
    Add(ds.size());
    for (size_t i = 0; i < ds.size(); ++i) {
      Add(ds.initial_posts[i].size());  // the January cut
      for (core::PostView post : ds.initial_posts[i]) AddPost(post);
      Add(ds.future_posts[i].size());
      for (core::PostView post : ds.future_posts[i]) AddPost(post);
      Add(ds.references[i].stable_point);
      Add(ds.references[i].stable_rfd.size());
      for (const auto& [tag, weight] : ds.references[i].stable_rfd.entries()) {
        Add(tag);
        AddDouble(weight);
      }
      Add(ds.year_length[i]);
      AddDouble(ds.popularity[i]);
      Add(ds.urls[i].size());
      for (char c : ds.urls[i]) Add(c);
      Add(ds.source_ids[i]);
    }
    Add(ds.scanned);
    Add(ds.dropped_unstable);
  }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  template <typename T>
  void Add(T value) {
    const uint64_t widened = static_cast<uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (widened >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddPost(core::PostView post) {
    Add(post.tags.size());
    for (core::TagId tag : post.tags) Add(tag);
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string PreparedDigest(const Corpus& corpus, const PrepConfig& config) {
  auto prep = PrepareFromCorpus(corpus, config);
  EXPECT_TRUE(prep.ok()) << prep.status().ToString();
  if (!prep.ok()) return "";
  return DatasetDigest(prep.value()).Hex();
}

std::string PreparedDigest(const CorpusConfig& corpus_config,
                           const PrepConfig& prep_config) {
  auto corpus = Corpus::Generate(corpus_config);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  if (!corpus.ok()) return "";
  return PreparedDigest(corpus.value(), prep_config);
}

// The shape of the end-to-end benchmark's fleet dataset.
CorpusConfig E2eCorpusConfig() {
  CorpusConfig config;
  config.num_resources = 2000;
  config.seed = 11;
  config.year_jitter_sigma = 0.0;
  return config;
}

PrepConfig E2ePrepConfig() {
  PrepConfig config;
  config.seed = 11;
  return config;
}

constexpr char kE2eDigest[] = "5cdf3e9af35e49f3";

// Pins the prepared datasets bit for bit, so a rewrite of the preparation
// loop must reproduce every post, cut, stable point and stable rfd.
TEST(DatasetPrepGoldenTest, PreparedDatasetIsPinned) {
  EXPECT_EQ(PreparedDigest(E2eCorpusConfig(), E2ePrepConfig()), kE2eDigest);

  // A jittered corpus with default preparation.
  CorpusConfig jittered;
  jittered.num_resources = 500;
  jittered.seed = 1;
  EXPECT_EQ(PreparedDigest(jittered, PrepConfig{}), "b9f961ded86aee4d");

  // Stops keeping resources part-way through the corpus.
  PrepConfig capped;
  capped.max_keep = 37;
  EXPECT_EQ(PreparedDigest(jittered, capped), "611c0d24bf5191af");
}

// A cap reached well past the first resources the scan hands out, so the
// keep step must stop in the middle of the scanned corpus.
TEST(DatasetPrepGoldenTest, LateCapIsPinned) {
  PrepConfig capped = E2ePrepConfig();
  capped.max_keep = 1000;
  EXPECT_EQ(PreparedDigest(E2eCorpusConfig(), capped), "376accc526d94488");
}

TEST(DatasetPrepGoldenTest, PreparedSequencesArePinned) {
  CorpusConfig corpus_config;
  corpus_config.num_resources = 300;
  corpus_config.seed = 5;
  auto corpus = Corpus::Generate(corpus_config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<std::vector<core::Post>> year;
  for (core::ResourceId i = 0; i < corpus.value().num_resources(); ++i) {
    year.push_back(corpus.value().MaterializeSequence(
        i, corpus.value().resource(i).year_length));
  }
  PrepConfig config;
  config.seed = 3;
  auto prep =
      PrepareFromSequences(core::PostStore::FromPosts(year), {}, config);
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_EQ(DatasetDigest(prep.value()).Hex(), "39e56d6c9fd29a92");
}

// Preparation reads the corpus only through const calls, so concurrent
// preparations of one shared corpus each get the pinned dataset.
TEST(DatasetPrepGoldenTest, ConcurrentPreparationsShareOneCorpus) {
  auto corpus = Corpus::Generate(E2eCorpusConfig());
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::string digests[2];
  std::thread other(
      [&] { digests[0] = PreparedDigest(corpus.value(), E2ePrepConfig()); });
  digests[1] = PreparedDigest(corpus.value(), E2ePrepConfig());
  other.join();
  EXPECT_EQ(digests[0], kE2eDigest);
  EXPECT_EQ(digests[1], kE2eDigest);
}

TEST(DatasetPrepSequencesTest, WorksOnMaterialisedSequences) {
  // Stable sequences: repeated identical posts.
  // Resource 2 never stabilises (too short).
  const core::PostStore year = core::PostStore::FromPosts(
      {std::vector<core::Post>(40, core::Post::FromTags({1, 2})),
       std::vector<core::Post>(40, core::Post::FromTags({3})),
       {core::Post::FromTags({4})}});

  PrepConfig config;
  config.stability = core::StabilityParams{5, 0.99};
  auto prep = PrepareFromSequences(year, {"a", "b", "c"}, config);
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep.value().size(), 2u);
  EXPECT_EQ(prep.value().dropped_unstable, 1);
  EXPECT_EQ(prep.value().urls[0], "a");
  // Popularity defaults to year volume.
  EXPECT_DOUBLE_EQ(prep.value().popularity[0], 40.0);
}

TEST(DatasetPrepSequencesTest, AllUnstableFails) {
  const core::PostStore year =
      core::PostStore::FromPosts({{core::Post::FromTags({1})}});
  PrepConfig config;
  auto prep = PrepareFromSequences(year, {}, config);
  EXPECT_FALSE(prep.ok());
  EXPECT_EQ(prep.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(DatasetPrepSequencesTest, BadConfigRejected) {
  const core::PostStore year = core::PostStore::FromPosts(
      {std::vector<core::Post>(40, core::Post::FromTags({1}))});
  for (int omega : {0, 1}) {
    PrepConfig config;
    config.stability.omega = omega;
    auto prep = PrepareFromSequences(year, {}, config);
    EXPECT_EQ(prep.status().code(), util::StatusCode::kInvalidArgument)
        << "omega " << omega;
  }
  PrepConfig config;
  config.january_fraction = std::numeric_limits<double>::quiet_NaN();
  auto prep = PrepareFromSequences(year, {}, config);
  EXPECT_EQ(prep.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DatasetPrepSequencesTest, MismatchedUrlsRejected) {
  const core::PostStore year = core::PostStore::FromPosts({{}, {}});
  PrepConfig config;
  auto prep = PrepareFromSequences(year, {"only-one"}, config);
  EXPECT_FALSE(prep.ok());
  EXPECT_EQ(prep.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sim
}  // namespace incentag
