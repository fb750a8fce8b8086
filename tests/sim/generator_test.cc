#include "src/sim/generator.h"

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/stability.h"
#include "tests/testing/test_util.h"

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
  const TagDistribution converged = corpus.value().Distribution(subject);
  for (const auto& [tag, w] :
       corpus.value().Distribution(subject, /*early=*/true)) {
    // Tags with much higher early weight than true weight belong to the
    // secondary aspect.
    double true_w = 0.0;
    for (const auto& [t2, w2] : converged) {
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

// The fleet benchmark's corpus (2000 resources, seed 1, no jitter) holds
// its distributions in one flat sampling table and its names in one
// arena, measured as the heap it gives back when destroyed: 2.07 MB, and
// the bound leaves ~15% headroom. The floor is the table's 12 bytes an
// entry, so the probe does see the corpus.
TEST(CorpusTest, FootprintIsFlat) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator is not glibc's heap";
#endif
  CorpusConfig config;
  config.num_resources = 2000;
  config.seed = 1;
  config.year_jitter_sigma = 0.0;
  auto generated = Corpus::Generate(config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  auto corpus = std::make_unique<Corpus>(std::move(generated).value());
  size_t entries = 0;
  for (core::ResourceId i = 0; i < corpus->num_resources(); ++i) {
    entries += corpus->Distribution(i).size();
    if (corpus->resource(i).two_aspect) {
      entries += corpus->Distribution(i, /*early=*/true).size();
    }
  }

  const size_t before = testing::HeapInUse();
  corpus.reset();
  const size_t freed = before - testing::HeapInUse();
  const size_t bound = 2400 * 1024;
  std::printf("corpus freed %zu bytes; bound %zu\n", freed, bound);
  EXPECT_LE(freed, bound);
  EXPECT_GE(freed, entries * (sizeof(core::TagId) + sizeof(double)));
}

// FNV-1a over bytes, for pinning generated data bit for bit.
class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(uint64_t value) { Add(&value, sizeof(value)); }
  std::string Hex() const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return hex;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Digest of posts 0..year_length-1 of every resource, tag ids in order.
std::string PostsDigest(const Corpus& corpus) {
  Fnv1a digest;
  for (core::ResourceId i = 0; i < corpus.num_resources(); ++i) {
    const int64_t year = corpus.resource(i).year_length;
    digest.Add(static_cast<uint64_t>(year));
    std::vector<core::TagId> tags;
    for (int64_t k = 0; k < year; ++k) {
      tags.clear();
      corpus.AppendPostTags(i, k, &tags);
      digest.Add(tags.size());
      for (core::TagId tag : tags) digest.Add(tag);
    }
  }
  return digest.Hex();
}

// Digest of the vocabulary's names in id order.
std::string VocabDigest(const core::TagVocabulary& vocab) {
  Fnv1a digest;
  digest.Add(vocab.size());
  for (core::TagId id = 0; id < vocab.size(); ++id) {
    const std::string_view name = vocab.Name(id);
    digest.Add(name.size());
    digest.Add(name.data(), name.size());
  }
  return digest.Hex();
}

struct GoldenCase {
  std::string posts;
  std::string vocab;
};

GoldenCase Digests(const CorpusConfig& config) {
  auto corpus = Corpus::Generate(config);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  if (!corpus.ok()) return {};
  return {PostsDigest(corpus.value()), VocabDigest(corpus.value().vocab())};
}

// Pins every post of three corpora and their vocabularies bit for bit, so
// a change to how a corpus stores its distributions or names must
// reproduce the same data.
TEST(CorpusGoldenTest, DefaultsArePinned) {
  CorpusConfig config;
  config.num_resources = 200;
  config.seed = 42;
  const GoldenCase got = Digests(config);
  EXPECT_EQ(got.posts, "919a4262fe8522f8");
  EXPECT_EQ(got.vocab, "3452d90f85b00ec0");
}

// Every resource has two aspects, so every one samples an early span.
TEST(CorpusGoldenTest, AllTwoAspectIsPinned) {
  CorpusConfig config;
  config.num_resources = 500;
  config.two_aspect_prob = 1.0;
  const GoldenCase got = Digests(config);
  EXPECT_EQ(got.posts, "0e2c37677a20241f");
  EXPECT_EQ(got.vocab, "f6199e292a36ef59");
}

TEST(CorpusGoldenTest, NoShowcasesNoJitterIsPinned) {
  CorpusConfig config;
  config.num_resources = 300;
  config.add_showcases = false;
  config.year_jitter_sigma = 0.0;
  const GoldenCase got = Digests(config);
  EXPECT_EQ(got.posts, "062cec5161ecb5e6");
  EXPECT_EQ(got.vocab, "48198d167bd6ae7d");
}

}  // namespace
}  // namespace sim
}  // namespace incentag
