#include "src/sim/delicious_format.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "src/sim/generator.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace sim {
namespace {

TEST(DeliciousFormatTest, ParsesWellFormedLines) {
  const char* text =
      "100\tuser1\thttp://a.example\tgoogle maps\n"
      "200\tuser2\thttp://a.example\tearth\n"
      "150\tuser3\thttp://b.example\tpictures\n";
  auto dump = ReadDumpText(text);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value().lines, 3);
  EXPECT_EQ(dump.value().posts, 3);
  EXPECT_EQ(dump.value().skipped, 0);
  ASSERT_EQ(dump.value().urls.size(), 2u);
  EXPECT_EQ(dump.value().urls[0], "http://a.example");
  ASSERT_EQ(dump.value().sequences[0].size(), 2u);
  ASSERT_EQ(dump.value().sequences[1].size(), 1u);
  // Tags interned.
  EXPECT_TRUE(dump.value().vocab.Find("google").ok());
  EXPECT_TRUE(dump.value().vocab.Find("pictures").ok());
}

TEST(DeliciousFormatTest, OrdersPostsByTimestamp) {
  const char* text =
      "300\tu\thttp://a\tthird\n"
      "100\tu\thttp://a\tfirst\n"
      "200\tu\thttp://a\tsecond\n";
  auto dump = ReadDumpText(text);
  ASSERT_TRUE(dump.ok());
  const core::PostSequence& seq = dump.value().sequences[0];
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(dump.value().vocab.Name(seq[0].tags[0]), "first");
  EXPECT_EQ(dump.value().vocab.Name(seq[1].tags[0]), "second");
  EXPECT_EQ(dump.value().vocab.Name(seq[2].tags[0]), "third");
}

TEST(DeliciousFormatTest, TimestampTiesKeepInputOrder) {
  const char* text =
      "100\tu\thttp://a\tfirst\n"
      "100\tu\thttp://a\tsecond\n";
  auto dump = ReadDumpText(text);
  ASSERT_TRUE(dump.ok());
  const core::PostSequence& seq = dump.value().sequences[0];
  EXPECT_EQ(dump.value().vocab.Name(seq[0].tags[0]), "first");
  EXPECT_EQ(dump.value().vocab.Name(seq[1].tags[0]), "second");
}

TEST(DeliciousFormatTest, SkipsMalformedLines) {
  const char* text =
      "100\tu\thttp://a\tok\n"
      "not-a-number\tu\thttp://a\tx\n"   // bad timestamp
      "100\tu\thttp://a\n"               // missing tags field
      "100\tu\thttp://a\t   \n"          // empty tag list
      "100\tu\t\tx\n"                    // empty url
      "too few fields\n"                 // wrong count
      "100\tu\thttp://a\tfine too\n";
  auto dump = ReadDumpText(text);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value().posts, 2);
  EXPECT_EQ(dump.value().skipped, 5);
  EXPECT_EQ(dump.value().sequences[0].size(), 2u);
}

TEST(DeliciousFormatTest, IgnoresCommentsAndBlankLines) {
  const char* text =
      "# a comment\n"
      "\n"
      "   \n"
      "100\tu\thttp://a\tx\n";
  auto dump = ReadDumpText(text);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value().lines, 1);
  EXPECT_EQ(dump.value().posts, 1);
}

TEST(DeliciousFormatTest, EmptyTextIsEmptyDump) {
  auto dump = ReadDumpText("");
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value().posts, 0);
  EXPECT_TRUE(dump.value().urls.empty());
}

TEST(DeliciousFormatTest, PostTagsAreDeduplicated) {
  auto dump = ReadDumpText("1\tu\thttp://a\tmaps maps google\n");
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value().sequences[0][0].size(), 2u);
}

TEST(DeliciousFormatTest, MissingFileIsIoError) {
  auto dump = ReadDumpFile("/nonexistent/path/posts.tsv");
  EXPECT_FALSE(dump.ok());
  EXPECT_EQ(dump.status().code(), util::StatusCode::kIoError);
}

TEST(DeliciousFormatTest, WriteRejectsMismatchedInputs) {
  core::TagVocabulary vocab;
  util::Status status = WriteDumpFile("/tmp/incentag_bad.tsv", {"a"}, {}, vocab);
  EXPECT_FALSE(status.ok());
}

TEST(DeliciousFormatTest, RoundTripPreservesSequences) {
  CorpusConfig config;
  config.num_resources = 12;
  config.seed = 3;
  config.year_posts_min = 10;
  config.year_posts_max = 50;
  auto corpus = Corpus::Generate(config);
  ASSERT_TRUE(corpus.ok());

  std::vector<std::string> urls;
  std::vector<std::vector<core::Post>> sequences;
  for (core::ResourceId i = 0; i < corpus.value().num_resources(); ++i) {
    urls.push_back(corpus.value().resource(i).url);
    sequences.push_back(corpus.value().MaterializeSequence(
        i, corpus.value().resource(i).year_length));
  }

  const std::string path =
      incentag::testing::TempPath("incentag_roundtrip.tsv").string();
  ASSERT_TRUE(
      WriteDumpFile(path, urls, core::PostStore::FromPosts(sequences),
                    corpus.value().vocab())
          .ok());

  auto dump = ReadDumpFile(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  ASSERT_EQ(dump.value().urls.size(), urls.size());
  EXPECT_EQ(dump.value().skipped, 0);

  // Map dump urls back to original indices and compare tag names per post.
  for (size_t d = 0; d < dump.value().urls.size(); ++d) {
    size_t orig = urls.size();
    for (size_t i = 0; i < urls.size(); ++i) {
      if (urls[i] == dump.value().urls[d]) orig = i;
    }
    ASSERT_LT(orig, urls.size());
    const core::PostSequence& got = dump.value().sequences[d];
    const std::vector<core::Post>& want = sequences[orig];
    ASSERT_EQ(got.size(), want.size()) << dump.value().urls[d];
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].size(), want[k].size());
      for (size_t t = 0; t < want[k].tags.size(); ++t) {
        // Ids differ between vocabularies; compare by name. Both sides are
        // sorted by their own ids, so compare as sets of names.
        std::set<std::string> got_names;
        std::set<std::string> want_names;
        for (core::TagId tag : got[k].tags) {
          got_names.insert(dump.value().vocab.Name(tag));
        }
        for (core::TagId tag : want[k].tags) {
          want_names.insert(corpus.value().vocab().Name(tag));
        }
        ASSERT_EQ(got_names, want_names);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sim
}  // namespace incentag
