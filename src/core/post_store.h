// PostStore: every post of a dataset, in one flat array.
//
// A post (Definition 1) is a handful of tags (1.54 on average in the
// synthetic corpus) and a dataset holds ~100k of them, read by every
// campaign on it. The store keeps them the way dataset preparation samples
// them: one TagId array with every post's tags back to back, one uint32_t
// bound per post (post p holds tags [bounds[p], bounds[p + 1])), and one
// uint32_t post offset per resource (resource i's sequence, Definition 2,
// is posts [starts[i], starts[i + 1])). That is 4 bytes per tag, 4 per
// post and 4 per resource, plus a leading zero in each offset array; no
// post owns an allocation.
//
// store[i] is resource i's PostSequence, a view whose elements are
// PostViews into the tag array. Views read the store's heap arrays: they
// stay valid while the store lives (a move keeps the arrays) and is not
// assigned to. A store never changes after Builder::Build, which CHECKs
// that every offset fits in 32 bits.
#ifndef INCENTAG_CORE_POST_STORE_H_
#define INCENTAG_CORE_POST_STORE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/core/types.h"
#include "src/util/logging.h"

namespace incentag {
namespace core {

// One resource's posts, in posting order (Definition 2), read in place.
class PostSequence {
 public:
  // For range-for: yields each post by value.
  class Iterator {
   public:
    PostView operator*() const {
      return PostView(std::span<const TagId>(tags_ + bound_[0],
                                             bound_[1] - bound_[0]));
    }
    Iterator& operator++() {
      ++bound_;
      return *this;
    }
    friend bool operator==(Iterator a, Iterator b) {
      return a.bound_ == b.bound_;
    }

   private:
    friend class PostSequence;
    Iterator(const TagId* tags, const uint32_t* bound)
        : tags_(tags), bound_(bound) {}

    const TagId* tags_ = nullptr;
    const uint32_t* bound_ = nullptr;
  };

  // No posts.
  PostSequence() = default;
  PostSequence(const PostSequence&) = default;
  // Lvalues only: assigning to a view a store returned changes nothing.
  PostSequence& operator=(const PostSequence&) & = default;
  // Posts [0, bounds.size() - 1) of a flat layout: post k holds
  // tags[bounds[k], bounds[k + 1]). `bounds` must not be empty.
  PostSequence(const TagId* tags, std::span<const uint32_t> bounds)
      : tags_(tags), bounds_(bounds.data()), size_(bounds.size() - 1) {
    assert(!bounds.empty());
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  PostView operator[](size_t k) const {
    assert(k < size_);
    return *Iterator(tags_, bounds_ + k);
  }
  Iterator begin() const { return Iterator(tags_, bounds_); }
  Iterator end() const { return Iterator(tags_, bounds_ + size_); }

  // Posts [begin, end) of this sequence.
  PostSequence Slice(size_t begin, size_t end) const {
    assert(begin <= end && end <= size_);
    PostSequence slice;
    slice.tags_ = tags_;
    slice.bounds_ = bounds_ + begin;
    slice.size_ = end - begin;
    return slice;
  }

  // Same posts, in the same order.
  friend bool operator==(const PostSequence& a, const PostSequence& b) {
    if (a.size() != b.size()) return false;
    for (size_t k = 0; k < a.size(); ++k) {
      if (!(a[k] == b[k])) return false;
    }
    return true;
  }

 private:
  const TagId* tags_ = nullptr;
  const uint32_t* bounds_ = nullptr;  // size_ + 1 entries
  size_t size_ = 0;
};

class PostStore {
 public:
  class Builder;

  // For range-for: yields each resource's sequence by value.
  class Iterator {
   public:
    PostSequence operator*() const { return (*store_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(Iterator a, Iterator b) { return a.i_ == b.i_; }

   private:
    friend class PostStore;
    Iterator(const PostStore* store, size_t i) : store_(store), i_(i) {}

    const PostStore* store_ = nullptr;
    size_t i_ = 0;
  };

  // No resources.
  PostStore() = default;

  // One resource per element of `sequences`, through one Builder.
  static PostStore FromPosts(const std::vector<std::vector<Post>>& sequences);

  // Resources.
  size_t size() const { return starts_.empty() ? 0 : starts_.size() - 1; }
  bool empty() const { return size() == 0; }
  size_t num_posts() const { return bounds_.empty() ? 0 : bounds_.size() - 1; }
  size_t num_tags() const { return tags_.size(); }

  // Resource i's posts.
  PostSequence operator[](size_t i) const {
    assert(i < size());
    return PostSequence(tags_.data(),
                        std::span<const uint32_t>(bounds_).subspan(
                            starts_[i], starts_[i + 1] - starts_[i] + 1));
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  // Same resources holding the same posts: the layout is canonical, so
  // this compares the arrays.
  friend bool operator==(const PostStore& a, const PostStore& b) = default;

 private:
  // Either all three are empty (no resources) or both offset arrays start
  // with 0 and have one more entry than they count.
  std::vector<TagId> tags_;
  std::vector<uint32_t> bounds_;
  std::vector<uint32_t> starts_;
};

// Fills a PostStore one post, or one run of posts, at a time: posts go to
// the open resource until EndResource closes it.
class PostStore::Builder {
 public:
  Builder() {
    store_.bounds_.push_back(0);
    store_.starts_.push_back(0);
  }

  // Appends `post` to the open resource.
  void AddPost(PostView post) {
    CheckFits(post.size(), 1);
    store_.tags_.insert(store_.tags_.end(), post.tags.begin(),
                        post.tags.end());
    store_.bounds_.push_back(static_cast<uint32_t>(store_.tags_.size()));
  }

  // Appends every post of `posts` to the open resource. A sequence's tags
  // lie back to back, so they are copied in one piece.
  void AddPosts(PostSequence posts) {
    if (posts.empty()) return;
    const TagId* from = posts[0].tags.data();
    const PostView last = posts[posts.size() - 1];
    const size_t tags =
        static_cast<size_t>(last.tags.data() + last.size() - from);
    CheckFits(tags, posts.size());
    const size_t base = store_.tags_.size();
    store_.tags_.insert(store_.tags_.end(), from, from + tags);
    for (PostView post : posts) {
      store_.bounds_.push_back(static_cast<uint32_t>(
          base + static_cast<size_t>(post.tags.data() + post.size() - from)));
    }
  }

  // Closes the open resource, which may hold no posts.
  void EndResource() {
    store_.starts_.push_back(static_cast<uint32_t>(store_.num_posts()));
  }

  // The store of every closed resource, its arrays at their exact size.
  // Posts added after the last EndResource are a CHECK failure.
  PostStore Build() && {
    INCENTAG_CHECK(store_.starts_.back() == store_.num_posts());
    if (store_.size() == 0) return PostStore();
    store_.tags_.shrink_to_fit();
    store_.bounds_.shrink_to_fit();
    store_.starts_.shrink_to_fit();
    return std::move(store_);
  }

 private:
  // CHECKs that `tags` more tags and `posts` more posts keep every offset
  // within uint32_t.
  void CheckFits(size_t tags, size_t posts) const {
    constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
    INCENTAG_CHECK(tags <= kMax - store_.tags_.size());
    INCENTAG_CHECK(posts <= kMax - store_.num_posts());
  }

  PostStore store_;
};

inline PostStore PostStore::FromPosts(
    const std::vector<std::vector<Post>>& sequences) {
  Builder builder;
  for (const std::vector<Post>& posts : sequences) {
    for (const Post& post : posts) builder.AddPost(post);
    builder.EndResource();
  }
  return std::move(builder).Build();
}

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_POST_STORE_H_
