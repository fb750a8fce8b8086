#include "src/core/post_stream.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"

namespace incentag {
namespace core {
namespace {

std::vector<PostSequence> MakeSequences() {
  std::vector<PostSequence> seqs(2);
  seqs[0].push_back(Post::FromTags({1}));
  seqs[0].push_back(Post::FromTags({2}));
  seqs[1].push_back(Post::FromTags({3}));
  return seqs;
}

TEST(VectorPostStreamTest, IteratesInOrder) {
  VectorPostStream stream(MakeSequences());
  EXPECT_EQ(stream.num_resources(), 2u);
  ASSERT_TRUE(stream.HasNext(0));
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{1}));
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{2}));
  EXPECT_FALSE(stream.HasNext(0));
  EXPECT_EQ(stream.Consumed(0), 2);
}

TEST(VectorPostStreamTest, ResourcesAreIndependent) {
  VectorPostStream stream(MakeSequences());
  EXPECT_EQ(stream.Next(1).tags, (std::vector<TagId>{3}));
  EXPECT_FALSE(stream.HasNext(1));
  EXPECT_TRUE(stream.HasNext(0));
  EXPECT_EQ(stream.Consumed(0), 0);
}

TEST(VectorPostStreamTest, PeekDoesNotConsume) {
  VectorPostStream stream(MakeSequences());
  EXPECT_EQ(stream.Peek(0, 1).tags, (std::vector<TagId>{2}));
  EXPECT_EQ(stream.Consumed(0), 0);
  EXPECT_EQ(stream.Available(0), 2);
  EXPECT_EQ(stream.Available(1), 1);
}

TEST(VectorPostStreamTest, ResetRestoresCursors) {
  VectorPostStream stream(MakeSequences());
  stream.Next(0);
  stream.Next(1);
  stream.Reset();
  EXPECT_EQ(stream.Consumed(0), 0);
  EXPECT_EQ(stream.Consumed(1), 0);
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{1}));
}

TEST(VectorPostStreamTest, EmptySequenceHasNoNext) {
  std::vector<PostSequence> seqs(1);
  VectorPostStream stream(std::move(seqs));
  EXPECT_FALSE(stream.HasNext(0));
  EXPECT_EQ(stream.Available(0), 0);
}

TEST(VectorPostStreamTest, BorrowingStreamReadsInPlace) {
  const std::vector<PostSequence> seqs = MakeSequences();
  VectorPostStream stream(&seqs);
  EXPECT_EQ(stream.num_resources(), 2u);
  EXPECT_EQ(&stream.Peek(0, 0), &seqs[0][0]);
  EXPECT_EQ(&stream.Peek(0, 1), &seqs[0][1]);
  EXPECT_EQ(&stream.Next(1), &seqs[1][0]);
  EXPECT_EQ(stream.Available(0), 2);
}

TEST(VectorPostStreamTest, BorrowingStreamsKeepIndependentCursors) {
  const std::vector<PostSequence> seqs = MakeSequences();
  VectorPostStream a(&seqs);
  VectorPostStream b(&seqs);
  EXPECT_EQ(a.Next(0).tags, (std::vector<TagId>{1}));
  EXPECT_EQ(a.Consumed(0), 1);
  EXPECT_EQ(b.Consumed(0), 0);
  ASSERT_TRUE(b.Skip(0, 2).ok());
  EXPECT_FALSE(b.HasNext(0));
  EXPECT_TRUE(a.HasNext(0));
  EXPECT_EQ(a.Next(0).tags, (std::vector<TagId>{2}));
  EXPECT_FALSE(a.Skip(1, 2).ok());
  EXPECT_EQ(b.Consumed(1), 0);
  a.Reset();
  EXPECT_EQ(a.Consumed(0), 0);
  EXPECT_EQ(b.Consumed(0), 2);
  EXPECT_EQ(b.Next(1).tags, (std::vector<TagId>{3}));
  EXPECT_TRUE(a.HasNext(1));
}

TEST(VectorPostStreamTest, OwningStreamSurvivesMoveIntoUniquePtr) {
  std::unique_ptr<PostStream> stream =
      std::make_unique<VectorPostStream>(VectorPostStream(MakeSequences()));
  ASSERT_TRUE(stream->HasNext(0));
  EXPECT_EQ(stream->Next(0).tags, (std::vector<TagId>{1}));
  EXPECT_EQ(stream->Next(0).tags, (std::vector<TagId>{2}));
  EXPECT_EQ(stream->Next(1).tags, (std::vector<TagId>{3}));
  EXPECT_FALSE(stream->HasNext(1));
}

TEST(VectorPostStreamTest, StoreIsTheReadPosts) {
  const std::vector<PostSequence> seqs = MakeSequences();
  VectorPostStream borrowing(&seqs);
  EXPECT_EQ(&borrowing.store(), &seqs);
  VectorPostStream owning(seqs);
  EXPECT_NE(&owning.store(), &seqs);
  EXPECT_EQ(owning.store().size(), seqs.size());
}

// A stream without random access, so Skip falls back to the default.
class CountingStream : public PostStream {
 public:
  size_t num_resources() const override { return 1; }
  bool HasNext(ResourceId /*i*/) override { return consumed_ < 3; }
  const Post& Next(ResourceId /*i*/) override {
    ++consumed_;
    return post_;
  }
  int64_t Consumed(ResourceId /*i*/) const override { return consumed_; }

 private:
  Post post_ = Post::FromTags({1});
  int64_t consumed_ = 0;
};

TEST(PostStreamTest, NegativeSkipIsRejectedAndMovesNoCursor) {
  VectorPostStream vector_stream(MakeSequences());
  ASSERT_TRUE(vector_stream.Skip(0, 1).ok());
  EXPECT_EQ(vector_stream.Skip(0, -1).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(vector_stream.Consumed(0), 1);
  EXPECT_EQ(vector_stream.Next(0).tags, (std::vector<TagId>{2}));

  CountingStream counting;
  ASSERT_TRUE(counting.Skip(0, 2).ok());
  EXPECT_EQ(counting.Skip(0, -1).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(counting.Consumed(0), 2);
  EXPECT_FALSE(counting.Skip(0, 2).ok());  // only one post left
}

}  // namespace
}  // namespace core
}  // namespace incentag
