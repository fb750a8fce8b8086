#include "src/sim/generator.h"

#include <set>

#include <gtest/gtest.h>

#include "src/core/stability.h"

namespace incentag {
namespace sim {
namespace {

CorpusConfig SmallConfig(uint64_t seed = 42) {
  CorpusConfig config;
  config.num_resources = 60;
  config.seed = seed;
  config.year_posts_min = 30;
  config.year_posts_max = 400;
  return config;
}

TEST(CorpusTest, GenerateBasicShape) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus.value().num_resources(), 60u);
  EXPECT_GT(corpus.value().vocab().size(), 100u);
}

TEST(CorpusTest, RejectsBadConfigs) {
  CorpusConfig config = SmallConfig();
  config.num_resources = 0;
  EXPECT_FALSE(Corpus::Generate(config).ok());
  config = SmallConfig();
  config.year_posts_min = 1;
  EXPECT_FALSE(Corpus::Generate(config).ok());
  config = SmallConfig();
  config.year_posts_max = 10;  // < min
  EXPECT_FALSE(Corpus::Generate(config).ok());
  config = SmallConfig();
  config.max_post_size = 0;
  EXPECT_FALSE(Corpus::Generate(config).ok());
  config = SmallConfig();
  config.two_aspect_prob = 1.5;
  EXPECT_FALSE(Corpus::Generate(config).ok());

  // Mixing weights that would empty or drop a distribution.
  EXPECT_TRUE(Corpus::Generate(CorpusConfig{}).ok());
  EXPECT_TRUE(Corpus::Generate(SmallConfig()).ok());
  const auto rejected = [](const CorpusConfig& bad) {
    auto corpus = Corpus::Generate(bad);
    return !corpus.ok() &&
           corpus.status().code() == util::StatusCode::kInvalidArgument;
  };
  config = SmallConfig();
  config.resource_own_tags = -1;
  EXPECT_TRUE(rejected(config));
  // Only own tags, and none of them: every post would be empty.
  config = SmallConfig();
  config.resource_own_tags = 0;
  config.resource_own_weight = 1.0;
  EXPECT_TRUE(rejected(config));
  config.resource_own_weight = -0.1;
  EXPECT_TRUE(rejected(config));
  // The early mix's secondary share, 0.95 - own, would vanish.
  config = SmallConfig();
  config.resource_own_weight = 0.95;
  EXPECT_TRUE(rejected(config));
  // With no two-aspect resource at all, only [0, 1) applies.
  config.two_aspect_prob = 0.0;
  config.add_showcases = false;
  config.secondary_aspect_weight = 0.0;
  EXPECT_FALSE(rejected(config));
  // A showcase page's secondary share would swallow the primary aspect.
  config = SmallConfig();
  config.two_aspect_prob = 0.0;
  config.secondary_aspect_weight = 0.0;
  config.resource_own_weight = 0.9;
  EXPECT_TRUE(rejected(config));
  // 1 - 0.15 - 0.9 < 0 would drop the primary aspect.
  config = SmallConfig();
  config.secondary_aspect_weight = 0.9;
  EXPECT_TRUE(rejected(config));
  config.secondary_aspect_weight = 0.85;  // primary share exactly 0
  EXPECT_TRUE(rejected(config));
  config.secondary_aspect_weight = -0.1;
  EXPECT_TRUE(rejected(config));
  config.secondary_aspect_weight = 1.0;
  EXPECT_TRUE(rejected(config));
  config = SmallConfig();
  config.early_bias_fraction = -0.1;
  EXPECT_TRUE(rejected(config));
  config.early_bias_fraction = 1.1;
  EXPECT_TRUE(rejected(config));
  config.early_bias_fraction = 1.0;
  EXPECT_FALSE(rejected(config));
}

TEST(CorpusTest, PostsAreDeterministicInSeedResourceIndex) {
  auto a = Corpus::Generate(SmallConfig(7));
  auto b = Corpus::Generate(SmallConfig(7));
  ASSERT_TRUE(a.ok() && b.ok());
  for (core::ResourceId i : {0u, 5u, 30u}) {
    for (int64_t k : {0, 1, 17, 100}) {
      EXPECT_EQ(a.value().SamplePost(i, k), b.value().SamplePost(i, k));
    }
  }
}

TEST(CorpusTest, DifferentSeedsProduceDifferentPosts) {
  auto a = Corpus::Generate(SmallConfig(1));
  auto b = Corpus::Generate(SmallConfig(2));
  ASSERT_TRUE(a.ok() && b.ok());
  int differing = 0;
  for (int64_t k = 0; k < 20; ++k) {
    if (!(a.value().SamplePost(10, k) == b.value().SamplePost(10, k))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);
}

TEST(CorpusTest, PostsAreNonEmptyAndWithinVocabulary) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok());
  for (core::ResourceId i = 0; i < 20; ++i) {
    for (int64_t k = 0; k < 30; ++k) {
      core::Post post = corpus.value().SamplePost(i, k);
      ASSERT_FALSE(post.empty());
      ASSERT_LE(post.size(),
                static_cast<size_t>(corpus.value().config().max_post_size));
      for (core::TagId tag : post.tags) {
        ASSERT_LT(tag, corpus.value().vocab().size());
      }
    }
  }
}

TEST(CorpusTest, MaterializeMatchesSamplePost) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok());
  std::vector<core::Post> seq = corpus.value().MaterializeSequence(3, 25);
  ASSERT_EQ(seq.size(), 25u);
  for (int64_t k = 0; k < 25; ++k) {
    EXPECT_EQ(seq[static_cast<size_t>(k)],
              corpus.value().SamplePost(3, k));
  }
}

TEST(CorpusTest, YearLengthsWithinBoundsAndSkewed) {
  CorpusConfig config = SmallConfig();
  config.num_resources = 300;
  // Showcase pages carry fixed year lengths outside the generic bounds.
  config.add_showcases = false;
  auto corpus = Corpus::Generate(config);
  ASSERT_TRUE(corpus.ok());
  int64_t max_year = 0;
  int64_t at_min = 0;
  for (core::ResourceId i = 0; i < corpus.value().num_resources(); ++i) {
    const ResourceInfo& info = corpus.value().resource(i);
    EXPECT_GE(info.year_length, config.year_posts_min);
    EXPECT_LE(info.year_length, config.year_posts_max);
    max_year = std::max(max_year, info.year_length);
    if (info.year_length <= config.year_posts_min + 5) ++at_min;
  }
  // Head resources are much bigger than the floor; the tail hugs it.
  EXPECT_GT(max_year, 5 * config.year_posts_min);
  EXPECT_GT(at_min, 50);
}

TEST(CorpusTest, ShowcaseResourcesExistWithExpectedAspects) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok());
  auto subject = corpus.value().FindUrl("www.myphysicslab.example");
  ASSERT_TRUE(subject.ok());
  const ResourceInfo& info = corpus.value().resource(subject.value());
  EXPECT_TRUE(info.two_aspect);
  EXPECT_EQ(corpus.value().hierarchy().category(info.primary).short_name,
            "physics");
  EXPECT_EQ(corpus.value().hierarchy().category(info.secondary).short_name,
            "java");
  EXPECT_GT(info.early_bias_posts, 0);

  auto espn = corpus.value().FindUrl("espn.example");
  ASSERT_TRUE(espn.ok());
  EXPECT_FALSE(corpus.value().resource(espn.value()).two_aspect);
}

TEST(CorpusTest, ShowcasesCanBeDisabled) {
  CorpusConfig config = SmallConfig();
  config.add_showcases = false;
  auto corpus = Corpus::Generate(config);
  ASSERT_TRUE(corpus.ok());
  EXPECT_FALSE(corpus.value().FindUrl("espn.example").ok());
}

TEST(CorpusTest, EarlyBiasShiftsEarlyPostsTowardSecondaryAspect) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok());
  core::ResourceId subject =
      corpus.value().FindUrl("www.myphysicslab.example").value();
  const ResourceInfo& info = corpus.value().resource(subject);

  // Secondary-aspect tag mass in early vs late posts.
  std::set<core::TagId> secondary_tags;
  for (const auto& [tag, w] : info.early_dist) {
    // Tags with much higher early weight than true weight belong to the
    // secondary aspect.
    double true_w = 0.0;
    for (const auto& [t2, w2] : info.true_dist) {
      if (t2 == tag) true_w = w2;
    }
    if (w > true_w * 1.5) secondary_tags.insert(tag);
  }
  ASSERT_FALSE(secondary_tags.empty());

  auto secondary_share = [&](int64_t from, int64_t to) {
    int64_t hits = 0;
    int64_t total = 0;
    for (int64_t k = from; k < to; ++k) {
      core::Post post = corpus.value().SamplePost(subject, k);
      for (core::TagId tag : post.tags) {
        ++total;
        if (secondary_tags.count(tag) > 0) ++hits;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(total);
  };
  const double early = secondary_share(0, info.early_bias_posts);
  const double late = secondary_share(200, 260);
  EXPECT_GT(early, late + 0.1);
}

TEST(CorpusTest, SequencesConvergeToStableRfds) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok());
  // A popular single-aspect resource should become practically stable well
  // within a few hundred posts under moderate parameters.
  core::ResourceId espn = corpus.value().FindUrl("espn.example").value();
  core::StabilityDetector detector(core::StabilityParams{10, 0.995});
  int64_t k = 0;
  while (!detector.IsStable() && k < 2000) {
    detector.AddPost(corpus.value().SamplePost(espn, k++));
  }
  EXPECT_TRUE(detector.IsStable());
}

TEST(CorpusTest, FindUrlMissing) {
  auto corpus = Corpus::Generate(SmallConfig());
  ASSERT_TRUE(corpus.ok());
  EXPECT_FALSE(corpus.value().FindUrl("not-a-real-url.example").ok());
}

}  // namespace
}  // namespace sim
}  // namespace incentag
