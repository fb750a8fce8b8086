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
    for (core::TagId t : a[k].tags) names_a.emplace(vocab_a.Name(t));
    for (core::TagId t : b[k].tags) names_b.emplace(vocab_b.Name(t));
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
      EXPECT_EQ(got_rfd.Weight(got_tag.value()), weight);
    }
    ExpectSamePosts(got.initial_posts[i], loaded.value().vocab,
                    dataset_->initial_posts[i], corpus_->vocab());
    ExpectSamePosts(got.future_posts[i], loaded.value().vocab,
                    dataset_->future_posts[i], corpus_->vocab());
  }
}

// The fleet benchmark's dataset (2000 resources, seed 1, no year jitter),
// saved and loaded, saves to bytes that load and save back to themselves:
// reference weights load bit for bit. (The first file lists each post's
// tags in the corpus's id order and the loader assigns its own ids, so
// only the order of tags within a line may change on the first load.)
TEST(DatasetIoFleetTest, SaveLoadSaveIsByteIdentical) {
  CorpusConfig config;
  config.num_resources = 2000;
  config.seed = 1;
  config.year_jitter_sigma = 0.0;
  auto corpus = Corpus::Generate(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  PrepConfig prep_config;
  prep_config.seed = 1;
  auto prep = PrepareFromCorpus(corpus.value(), prep_config);
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();

  auto first = SerializePreparedDataset(prep.value(), corpus.value().vocab());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto loaded = ParsePreparedDataset(first.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto saved = SerializePreparedDataset(loaded.value().dataset,
                                        loaded.value().vocab);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value().size(), first.value().size());
  auto reloaded = ParsePreparedDataset(saved.value());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto resaved = SerializePreparedDataset(reloaded.value().dataset,
                                          reloaded.value().vocab);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_TRUE(resaved.value() == saved.value());
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

// The writer never writes a weight that is not positive, nor a tag twice
// in one reference; the loader refuses both rather than drop or merge them.
TEST(DatasetIoParseTest, RejectsBadReferenceWeights) {
  for (const char* reference :
       {"reference 2 physics 0 maps 1.0\n",
        "reference 2 physics 1.0 maps -0.5\n",
        "reference 1 physics nan\n",
        "reference 1 physics inf\n",
        "reference 2 physics 0.8 physics 0.6\n"}) {
    const std::string text = std::string(
                                 "incentag-dataset v1\n"
                                 "resources 1\n"
                                 "resource a.example 2 1 1.0 0\n") +
                             reference +
                             "initial 1\n"
                             "physics\n"
                             "future 1\n"
                             "physics\n";
    auto loaded = ParsePreparedDataset(text);
    ASSERT_FALSE(loaded.ok()) << reference;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption)
        << reference;
  }
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

// A url longer than any fixed line buffer saves whole, with the fields
// after it, and loads back.
TEST(DatasetIoSaveTest, LongUrlRoundTrips) {
  const std::string url = "http://" + std::string(293, 'u');
  ASSERT_EQ(url.size(), 300u);
  const std::string text = "incentag-dataset v1\n"
                           "resources 1\n"
                           "resource " + url + " 2 1 0.25 7\n"
                           "reference 1 physics 1\n"
                           "initial 1\n"
                           "physics\n"
                           "future 1\n"
                           "maps\n";
  auto parsed = ParsePreparedDataset(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto saved = SerializePreparedDataset(parsed.value().dataset,
                                        parsed.value().vocab);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto loaded = ParsePreparedDataset(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PreparedDataset& got = loaded.value().dataset;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.urls[0], url);
  EXPECT_EQ(got.year_length[0], 2);
  EXPECT_EQ(got.references[0].stable_point, 1);
  EXPECT_EQ(got.popularity[0], 0.25);
  EXPECT_EQ(got.source_ids[0], 7u);
  EXPECT_EQ(saved.value(), text);
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
