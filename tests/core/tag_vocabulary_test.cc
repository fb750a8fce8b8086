#include "src/core/tag_vocabulary.h"

#include <string>

#include <gtest/gtest.h>

namespace incentag {
namespace core {
namespace {

TEST(TagVocabularyTest, InternAssignsSequentialIds) {
  TagVocabulary vocab;
  EXPECT_EQ(vocab.Intern("google"), 0u);
  EXPECT_EQ(vocab.Intern("earth"), 1u);
  EXPECT_EQ(vocab.Intern("maps"), 2u);
  EXPECT_EQ(vocab.size(), 3u);
}

TEST(TagVocabularyTest, InternIsIdempotent) {
  TagVocabulary vocab;
  TagId a = vocab.Intern("physics");
  TagId b = vocab.Intern("physics");
  EXPECT_EQ(a, b);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(TagVocabularyTest, NameRoundTrips) {
  TagVocabulary vocab;
  TagId id = vocab.Intern("navigation");
  EXPECT_EQ(vocab.Name(id), "navigation");
}

TEST(TagVocabularyTest, FindExistingAndMissing) {
  TagVocabulary vocab;
  vocab.Intern("travel");
  auto found = vocab.Find("travel");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 0u);
  auto missing = vocab.Find("weather");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(TagVocabularyTest, CaseSensitive) {
  TagVocabulary vocab;
  TagId lower = vocab.Intern("java");
  TagId upper = vocab.Intern("Java");
  EXPECT_NE(lower, upper);
}

TEST(TagVocabularyTest, ManyTagsKeepStableIds) {
  TagVocabulary vocab;
  for (int i = 0; i < 1000; ++i) {
    vocab.Intern("tag-" + std::to_string(i));
  }
  EXPECT_EQ(vocab.size(), 1000u);
  EXPECT_EQ(vocab.Find("tag-0").value(), 0u);
  EXPECT_EQ(vocab.Find("tag-999").value(), 999u);
  EXPECT_EQ(vocab.Name(500), "tag-500");
}

TEST(TagVocabularyTest, FindOnEmptyVocabularyIsNotFound) {
  const TagVocabulary vocab;
  auto missing = vocab.Find("anything");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(vocab.Find("").ok());
}

// 100k names push the index through many growths; every name keeps its
// id and reads back intact, and re-interning adds nothing.
TEST(TagVocabularyTest, ManyNamesRoundTripAcrossIndexGrowth) {
  constexpr int kNames = 100000;
  const auto name = [](int i) {
    // Names of varied length, sharing long prefixes.
    return "tag/" + std::string(static_cast<size_t>(i % 7), 'x') +
           std::to_string(i);
  };
  TagVocabulary vocab;
  for (int i = 0; i < kNames; ++i) {
    ASSERT_EQ(vocab.Intern(name(i)), static_cast<TagId>(i));
  }
  ASSERT_EQ(vocab.size(), static_cast<size_t>(kNames));
  for (int i = 0; i < kNames; ++i) {
    const std::string want = name(i);
    ASSERT_EQ(vocab.Name(static_cast<TagId>(i)), want);
    auto found = vocab.Find(want);
    ASSERT_TRUE(found.ok()) << want;
    ASSERT_EQ(found.value(), static_cast<TagId>(i));
    ASSERT_EQ(vocab.Intern(want), static_cast<TagId>(i));
  }
  EXPECT_EQ(vocab.size(), static_cast<size_t>(kNames));
  EXPECT_FALSE(vocab.Find("tag/" + std::to_string(kNames)).ok());
}

TEST(TagVocabularyTest, EmptyNameIsATag) {
  TagVocabulary vocab;
  const TagId a = vocab.Intern("a");
  const TagId empty = vocab.Intern("");
  EXPECT_NE(a, empty);
  EXPECT_EQ(vocab.Name(empty), "");
  EXPECT_EQ(vocab.Find("").value(), empty);
  EXPECT_EQ(vocab.Name(a), "a");
}

}  // namespace
}  // namespace core
}  // namespace incentag
