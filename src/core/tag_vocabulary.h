// TagVocabulary: bidirectional mapping between tag strings and TagIds.
//
// All core computations run on dense integer TagIds; the vocabulary is the
// single point where external tag strings (from a dump file or a generator)
// are interned. Interning is append-only: ids are stable for the lifetime of
// the vocabulary.
//
// Layout: every name lives in one char arena, back to back in id order,
// and `ends_[id]` is the arena offset one past name `id` (its start is the
// previous name's end). The string -> id direction is an open-addressing
// table of TagIds over the arena (linear probing, sized like src/core's
// other flat hashes by FlatHashCapacityFor), so a name costs its bytes,
// 4 bytes of offset and 6-12 bytes of index, and no allocation of its
// own.
#ifndef INCENTAG_CORE_TAG_VOCABULARY_H_
#define INCENTAG_CORE_TAG_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/types.h"
#include "src/util/status.h"

namespace incentag {
namespace core {

class TagVocabulary {
 public:
  TagVocabulary() = default;

  // Returns the id of `tag`, interning it if unseen. Tags are
  // case-sensitive; callers normalise case upstream if desired.
  TagId Intern(std::string_view tag);

  // Returns the id of `tag` or NotFound if it was never interned.
  util::Result<TagId> Find(std::string_view tag) const;

  // Returns the name of `id`; requires id < size(). The view points into
  // the arena: the next Intern may move it, after which the view dangles.
  // Copy it into a std::string to keep it across an Intern.
  std::string_view Name(TagId id) const;

  // Number of distinct tags (|T|).
  size_t size() const { return ends_.size(); }

 private:
  // The index slot holding `tag`'s id, or the empty slot where it would
  // go. Requires a non-empty index.
  size_t Slot(std::string_view tag) const;
  // Sizes the index for size() names and re-inserts every one.
  void Rehash();

  std::string chars_;           // every name, back to back in id order
  std::vector<uint32_t> ends_;  // ends_[id]: offset one past name id
  std::vector<TagId> index_;    // power-of-two size; kEmptySlot = empty
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_TAG_VOCABULARY_H_
