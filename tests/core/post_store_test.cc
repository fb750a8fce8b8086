#include "src/core/post_store.h"

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/dataset_io.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

// Resources of random length (some empty) holding random posts.
std::vector<std::vector<Post>> RandomResources(uint64_t seed, size_t n) {
  util::Rng rng(seed);
  std::vector<std::vector<Post>> resources;
  for (size_t i = 0; i < n; ++i) {
    const bool empty = rng.NextBounded(5) == 0;
    const int length = empty ? 0 : static_cast<int>(rng.NextBounded(9));
    resources.push_back(
        incentag::testing::RandomSequence(&rng, length, /*universe=*/30));
  }
  return resources;
}

void ExpectHolds(const PostStore& store,
                 const std::vector<std::vector<Post>>& want) {
  ASSERT_EQ(store.size(), want.size());
  size_t posts = 0;
  size_t tags = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    const PostSequence got = store[i];
    ASSERT_EQ(got.size(), want[i].size()) << "resource " << i;
    EXPECT_EQ(got.empty(), want[i].empty());
    for (size_t k = 0; k < want[i].size(); ++k) {
      EXPECT_EQ(std::vector<TagId>(got[k].tags.begin(), got[k].tags.end()),
                want[i][k].tags)
          << "resource " << i << " post " << k;
      tags += want[i][k].size();
    }
    posts += want[i].size();
  }
  EXPECT_EQ(store.num_posts(), posts);
  EXPECT_EQ(store.num_tags(), tags);
}

TEST(PostStoreTest, BuilderRoundTripsPosts) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::vector<Post>> resources =
        RandomResources(seed, 40);
    ExpectHolds(PostStore::FromPosts(resources), resources);
  }
}

TEST(PostStoreTest, EmptyResourcesKeepTheirPlace) {
  const std::vector<std::vector<Post>> resources = {
      {}, {Post::FromTags({3, 1})}, {}, {}, {Post::FromTags({2})}, {}};
  const PostStore store = PostStore::FromPosts(resources);
  ExpectHolds(store, resources);
  EXPECT_TRUE(store[0].empty());
  EXPECT_TRUE(store[5].empty());
  EXPECT_EQ(store[1][0], Post::FromTags({1, 3}));
}

TEST(PostStoreTest, EmptyStores) {
  const PostStore none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.num_posts(), 0u);
  EXPECT_EQ(none.num_tags(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_EQ(PostStore::FromPosts({}), none);
  EXPECT_EQ(PostStore::Builder().Build(), none);

  // Resources without posts are resources still.
  const PostStore hollow = PostStore::FromPosts({{}, {}});
  EXPECT_EQ(hollow.size(), 2u);
  EXPECT_EQ(hollow.num_posts(), 0u);
  EXPECT_NE(hollow, none);
  EXPECT_TRUE(PostSequence().empty());
  EXPECT_EQ(PostSequence().begin(), PostSequence().end());
}

TEST(PostStoreTest, EqualityComparesContents) {
  const std::vector<std::vector<Post>> resources = RandomResources(7, 20);
  const PostStore a = PostStore::FromPosts(resources);
  PostStore b = PostStore::FromPosts(resources);
  EXPECT_EQ(a, b);
  const PostStore copy = a;
  EXPECT_EQ(copy, a);

  size_t r = 0;
  while (resources[r].empty()) ++r;

  // The same posts split across resources differently is another store.
  std::vector<std::vector<Post>> moved = resources;
  moved[r + 1].insert(moved[r + 1].begin(), moved[r].back());
  moved[r].pop_back();
  EXPECT_NE(PostStore::FromPosts(moved), a);

  // One tag changed.
  std::vector<std::vector<Post>> changed = resources;
  changed[r][0] = Post::FromTags({29, 1000});
  EXPECT_NE(PostStore::FromPosts(changed), a);

  // Sequences compare by their posts, wherever they are stored.
  EXPECT_EQ(a[r], b[r]);
  EXPECT_NE(a[r], PostStore::FromPosts(changed)[r]);
  EXPECT_EQ(a[r], incentag::testing::Store(resources[r])[0]);
}

TEST(PostStoreTest, ViewsAndIteration) {
  const std::vector<std::vector<Post>> resources = RandomResources(11, 25);
  const PostStore store = PostStore::FromPosts(resources);

  size_t i = 0;
  for (const PostSequence& sequence : store) {
    size_t k = 0;
    for (PostView post : sequence) {
      EXPECT_EQ(post, resources[i][k]) << i << " " << k;
      EXPECT_EQ(post, sequence[k]);
      ++k;
    }
    EXPECT_EQ(k, resources[i].size());
    ++i;
  }
  EXPECT_EQ(i, store.size());

  // A slice reads the same posts in place.
  size_t longest = 0;
  for (size_t r = 0; r < store.size(); ++r) {
    if (store[r].size() > store[longest].size()) longest = r;
  }
  const PostSequence full = store[longest];
  ASSERT_GE(full.size(), 3u);
  const PostSequence middle = full.Slice(1, full.size() - 1);
  ASSERT_EQ(middle.size(), full.size() - 2);
  for (size_t k = 0; k < middle.size(); ++k) {
    EXPECT_EQ(middle[k].tags.data(), full[k + 1].tags.data());
  }
  EXPECT_TRUE(full.Slice(2, 2).empty());

  // Views outlive a move of the store: its arrays move with it.
  PostStore moved_from = PostStore::FromPosts(resources);
  const PostSequence view = moved_from[longest];
  const PostStore moved_to = std::move(moved_from);
  EXPECT_EQ(view, moved_to[longest]);
  EXPECT_EQ(view[0].tags.data(), moved_to[longest][0].tags.data());
}

TEST(PostStoreTest, AddPostsAppendsRunsInPlace) {
  const std::vector<std::vector<Post>> resources = RandomResources(5, 12);
  const PostStore source = PostStore::FromPosts(resources);
  // Every resource split at its middle and put back together through two
  // runs: the store is rebuilt exactly.
  PostStore::Builder builder;
  for (PostSequence sequence : source) {
    const size_t half = sequence.size() / 2;
    builder.AddPosts(sequence.Slice(0, half));
    builder.AddPosts(sequence.Slice(half, sequence.size()));
    builder.EndResource();
  }
  EXPECT_EQ(std::move(builder).Build(), source);

  // Runs and single posts mix within one resource.
  PostStore::Builder mixed;
  mixed.AddPost(Post::FromTags({9}));
  mixed.AddPosts(source[1]);
  mixed.AddPost(Post::FromTags({8}));
  mixed.EndResource();
  std::vector<Post> want = {Post::FromTags({9})};
  want.insert(want.end(), resources[1].begin(), resources[1].end());
  want.push_back(Post::FromTags({8}));
  EXPECT_EQ(std::move(mixed).Build(), PostStore::FromPosts({want}));
}

TEST(PostStoreDeathTest, OffsetsMustFitInUint32) {
  const TagId tag = 1;
  // The check reads only the span's size, before any tag is copied.
  const std::span<const TagId> too_many(&tag,
                                        std::numeric_limits<uint32_t>::max());
  EXPECT_DEATH(
      {
        PostStore::Builder builder;
        builder.AddPost(Post::FromTags({1}));
        builder.AddPost(PostView(too_many));
      },
      "CHECK failed");
}

TEST(PostStoreDeathTest, BuildNeedsEveryResourceClosed) {
  EXPECT_DEATH(
      {
        PostStore::Builder builder;
        builder.AddPost(Post::FromTags({1}));
        std::move(builder).Build();
      },
      "CHECK failed");
}

// The fleet benchmark's dataset: 2000 resources, seed 1, no year jitter.
class E2eDatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CorpusConfig corpus_config;
    corpus_config.num_resources = 2000;
    corpus_config.seed = 1;
    corpus_config.year_jitter_sigma = 0.0;
    auto corpus = sim::Corpus::Generate(corpus_config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = new sim::Corpus(std::move(corpus).value());
    sim::PrepConfig prep_config;
    prep_config.seed = 1;
    auto prepared = sim::PrepareFromCorpus(*corpus_, prep_config);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    dataset_ = new sim::PreparedDataset(std::move(prepared).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete corpus_;
    dataset_ = nullptr;
    corpus_ = nullptr;
  }

  static sim::Corpus* corpus_;
  static sim::PreparedDataset* dataset_;
};

sim::Corpus* E2eDatasetTest::corpus_ = nullptr;
sim::PreparedDataset* E2eDatasetTest::dataset_ = nullptr;

size_t HeapInUse() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Posts cost 4 bytes per tag, 4 per post and 4 per resource (the bound
// allows 16) plus a constant; no post owns an allocation. Measured as the
// heap the two stores give back when they are destroyed.
TEST_F(E2eDatasetTest, StoresHoldNoAllocationPerPost) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator is not glibc's heap";
#endif
  sim::PreparedDataset ds = *dataset_;
  const size_t resources = ds.size();
  const size_t posts =
      ds.initial_posts.num_posts() + ds.future_posts.num_posts();
  const size_t tags = ds.initial_posts.num_tags() + ds.future_posts.num_tags();
  EXPECT_EQ(resources, 1726u);
  EXPECT_EQ(ds.initial_posts.num_posts(), 23159u);
  EXPECT_EQ(ds.future_posts.num_posts(), 77623u);
  EXPECT_EQ(tags, 155671u);

  const size_t before = HeapInUse();
  {
    const PostStore initial = std::move(ds.initial_posts);
    const PostStore future = std::move(ds.future_posts);
  }
  const size_t freed = before - HeapInUse();
  const size_t bound = 4 * tags + 4 * posts + 16 * resources + 16 * 1024;
  std::printf("stores freed %zu bytes; bound %zu\n", freed, bound);
  EXPECT_LE(freed, bound);
  // The probe sees the stores: at least their tags and bounds.
  EXPECT_GE(freed, 4 * tags + 4 * posts);
}

// SerializePreparedDataset writes the bytes the vector-of-vectors layout
// wrote (its digest was taken from that build), and loading them back
// gives the same posts, tag for tag by name.
TEST_F(E2eDatasetTest, DatasetIoRoundTripIsByteIdentical) {
  auto text = sim::SerializePreparedDataset(*dataset_, corpus_->vocab());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text.value()) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  EXPECT_EQ(text.value().size(), 3404270u);
  EXPECT_EQ(std::string(hex), "3fbe090d4a905341");

  auto loaded = sim::ParsePreparedDataset(text.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const sim::PreparedDataset& got = loaded.value().dataset;
  ASSERT_EQ(got.size(), dataset_->size());
  for (const auto& [want_store, got_store] :
       {std::pair{&dataset_->initial_posts, &got.initial_posts},
        std::pair{&dataset_->future_posts, &got.future_posts}}) {
    ASSERT_EQ(got_store->num_posts(), want_store->num_posts());
    ASSERT_EQ(got_store->num_tags(), want_store->num_tags());
    for (size_t i = 0; i < got.size(); ++i) {
      const PostSequence want_posts = (*want_store)[i];
      const PostSequence got_posts = (*got_store)[i];
      ASSERT_EQ(got_posts.size(), want_posts.size());
      for (size_t k = 0; k < want_posts.size(); ++k) {
        std::vector<std::string> want_names;
        std::vector<std::string> got_names;
        for (TagId tag : want_posts[k].tags) {
          want_names.push_back(corpus_->vocab().Name(tag));
        }
        for (TagId tag : got_posts[k].tags) {
          got_names.push_back(loaded.value().vocab.Name(tag));
        }
        std::sort(want_names.begin(), want_names.end());
        std::sort(got_names.begin(), got_names.end());
        ASSERT_EQ(got_names, want_names) << "resource " << i << " post " << k;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace incentag
