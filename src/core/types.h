// Fundamental value types of the incentive-based tagging model
// (paper Section III-A, Definitions 1-2).
#ifndef INCENTAG_CORE_TYPES_H_
#define INCENTAG_CORE_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace incentag {
namespace core {

// Index of a resource within a resource set R = {r_1, ..., r_n}.
using ResourceId = uint32_t;

// Index of a tag within the tag universe T = {t_1, ..., t_m}.
using TagId = uint32_t;

// Sentinel for "no resource"; returned by strategies that cannot choose.
inline constexpr ResourceId kInvalidResource = static_cast<ResourceId>(-1);

// A post (Definition 1): the non-empty set of tags a tagger assigns to a
// resource in one tagging operation. Tags are stored sorted and de-duplicated
// so set semantics hold structurally. A Post owns its tags; parsers, the
// generator and tests build them, and a dataset keeps its posts in one
// flat PostStore (post_store.h) instead.
struct Post {
  std::vector<TagId> tags;

  // Normalises an arbitrary tag list into a Post (sorts, removes
  // duplicates). An empty input produces an empty Post, which the data
  // pipeline rejects (Definition 1 requires non-empty).
  static Post FromTags(std::vector<TagId> raw) {
    std::sort(raw.begin(), raw.end());
    raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
    return Post{std::move(raw)};
  }

  bool empty() const { return tags.empty(); }
  size_t size() const { return tags.size(); }

  friend bool operator==(const Post& a, const Post& b) {
    return a.tags == b.tags;
  }
};

// A post read in place, from a Post or from a PostStore's tag array.
struct PostView {
  std::span<const TagId> tags;

  // Implicit, so code that reads posts takes either kind.
  PostView() = default;
  PostView(std::span<const TagId> tags) : tags(tags) {}
  PostView(const Post& post) : tags(post.tags) {}
  PostView(const PostView&) = default;
  // Lvalues only: assigning to a view a store returned changes nothing.
  PostView& operator=(const PostView&) & = default;

  bool empty() const { return tags.empty(); }
  size_t size() const { return tags.size(); }

  friend bool operator==(PostView a, PostView b) {
    return std::equal(a.tags.begin(), a.tags.end(), b.tags.begin(),
                      b.tags.end());
  }
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_TYPES_H_
