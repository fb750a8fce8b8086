#include "src/sim/dataset_io.h"

#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "src/sim/generator.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace sim {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusConfig config;
    config.num_resources = 30;
    config.seed = 77;
    auto corpus = Corpus::Generate(config);
    ASSERT_TRUE(corpus.ok());
    corpus_ = std::make_unique<Corpus>(std::move(corpus).value());
    auto prep = PrepareFromCorpus(*corpus_, PrepConfig{});
    ASSERT_TRUE(prep.ok());
    dataset_ = std::make_unique<PreparedDataset>(std::move(prep).value());
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<PreparedDataset> dataset_;
};

// Compares posts across different vocabularies via tag names.
void ExpectSamePosts(const core::PostSequence& a,
                     const core::TagVocabulary& vocab_a,
                     const core::PostSequence& b,
                     const core::TagVocabulary& vocab_b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].size(), b[k].size());
    std::set<std::string> names_a;
    std::set<std::string> names_b;
    for (core::TagId t : a[k].tags) names_a.insert(vocab_a.Name(t));
    for (core::TagId t : b[k].tags) names_b.insert(vocab_b.Name(t));
    ASSERT_EQ(names_a, names_b);
  }
}

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  auto text = SerializePreparedDataset(*dataset_, corpus_->vocab());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto loaded = ParsePreparedDataset(text.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const PreparedDataset& got = loaded.value().dataset;
  ASSERT_EQ(got.size(), dataset_->size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.urls[i], dataset_->urls[i]);
    EXPECT_EQ(got.year_length[i], dataset_->year_length[i]);
    EXPECT_EQ(got.source_ids[i], dataset_->source_ids[i]);
    EXPECT_DOUBLE_EQ(got.popularity[i], dataset_->popularity[i]);
    EXPECT_EQ(got.references[i].stable_point,
              dataset_->references[i].stable_point);
    // Stable rfd weights match via names.
    const auto& want_rfd = dataset_->references[i].stable_rfd;
    const auto& got_rfd = got.references[i].stable_rfd;
    ASSERT_EQ(got_rfd.size(), want_rfd.size());
    for (const auto& [tag, weight] : want_rfd.entries()) {
      auto got_tag = loaded.value().vocab.Find(corpus_->vocab().Name(tag));
      ASSERT_TRUE(got_tag.ok());
      EXPECT_NEAR(got_rfd.Weight(got_tag.value()), weight, 1e-12);
    }
    ExpectSamePosts(got.initial_posts[i], loaded.value().vocab,
                    dataset_->initial_posts[i], corpus_->vocab());
    ExpectSamePosts(got.future_posts[i], loaded.value().vocab,
                    dataset_->future_posts[i], corpus_->vocab());
  }
}

TEST_F(DatasetIoTest, FileRoundTrip) {
  const std::string path =
      incentag::testing::TempPath("incentag_dataset.txt").string();
  ASSERT_TRUE(
      SavePreparedDataset(path, *dataset_, corpus_->vocab()).ok());
  auto loaded = LoadPreparedDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dataset.size(), dataset_->size());
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, LoadedDatasetRunsThroughTheEngine) {
  auto text = SerializePreparedDataset(*dataset_, corpus_->vocab());
  ASSERT_TRUE(text.ok());
  auto loaded = ParsePreparedDataset(text.value());
  ASSERT_TRUE(loaded.ok());
  const PreparedDataset& ds = loaded.value().dataset;
  core::VectorPostStream stream = ds.MakeStream();
  EXPECT_EQ(stream.num_resources(), ds.size());
  EXPECT_FALSE(stream.store()[0].empty());
}

TEST(DatasetIoParseTest, RejectsMissingMagic) {
  auto loaded = ParsePreparedDataset("not a dataset\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption);
}

TEST(DatasetIoParseTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParsePreparedDataset("").ok());
}

TEST(DatasetIoParseTest, RejectsTruncatedFile) {
  const char* text =
      "incentag-dataset v1\n"
      "resources 1\n"
      "resource a.example 10 5 1.0 0\n"
      "reference 1 physics 1.0\n"
      "initial 2\n"
      "physics\n";  // second initial post missing, future section missing
  auto loaded = ParsePreparedDataset(text);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption);
}

TEST(DatasetIoParseTest, RejectsBadCountsAndFields) {
  EXPECT_FALSE(ParsePreparedDataset("incentag-dataset v1\n"
                                    "resources many\n")
                   .ok());
  EXPECT_FALSE(ParsePreparedDataset("incentag-dataset v1\n"
                                    "resources 1\n"
                                    "resource only-three-fields 1 2\n")
                   .ok());
  EXPECT_FALSE(ParsePreparedDataset("incentag-dataset v1\n"
                                    "resources 1\n"
                                    "resource a 10 5 1.0 0\n"
                                    "reference 2 physics 1.0\n")  // count lies
                   .ok());
}

TEST(DatasetIoParseTest, RejectsEmptyPostLine) {
  const char* text =
      "incentag-dataset v1\n"
      "resources 1\n"
      "resource a.example 2 1 1.0 0\n"
      "reference 1 physics 1.0\n"
      "initial 1\n"
      "physics\n"
      "future 1\n"
      "\n";  // blank line is skipped, so the post is "missing"
  EXPECT_FALSE(ParsePreparedDataset(text).ok());
}

TEST(DatasetIoParseTest, AcceptsCommentsAnywhere) {
  const char* text =
      "# preamble\n"
      "incentag-dataset v1\n"
      "# counts\n"
      "resources 1\n"
      "resource a.example 2 1 1.0 0\n"
      "reference 1 physics 0.5\n"
      "initial 1\n"
      "physics maps\n"
      "# the future\n"
      "future 1\n"
      "maps\n";
  auto loaded = ParsePreparedDataset(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dataset.size(), 1u);
  EXPECT_EQ(loaded.value().dataset.initial_posts[0][0].size(), 2u);
}

TEST(DatasetIoParseTest, ZeroResourcesIsValid) {
  auto loaded = ParsePreparedDataset("incentag-dataset v1\nresources 0\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().dataset.size(), 0u);
}

TEST(DatasetIoSaveTest, MissingDirectoryIsIoError) {
  PreparedDataset empty;
  core::TagVocabulary vocab;
  util::Status status =
      SavePreparedDataset("/no/such/dir/ds.txt", empty, vocab);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

}  // namespace
}  // namespace sim
}  // namespace incentag
