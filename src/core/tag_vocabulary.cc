#include "src/core/tag_vocabulary.h"

#include <cassert>
#include <functional>
#include <limits>

#include "src/core/tag_count_map.h"
#include "src/util/logging.h"

namespace incentag {
namespace core {

namespace {

constexpr TagId kEmptySlot = std::numeric_limits<TagId>::max();

}  // namespace

TagId TagVocabulary::Intern(std::string_view tag) {
  size_t slot = 0;
  if (!index_.empty()) {
    slot = Slot(tag);
    if (index_[slot] != kEmptySlot) return index_[slot];
  }
  INCENTAG_CHECK(ends_.size() < kEmptySlot &&
                 tag.size() <= std::numeric_limits<uint32_t>::max() -
                                   chars_.size());
  const TagId id = static_cast<TagId>(ends_.size());
  chars_.append(tag);
  ends_.push_back(static_cast<uint32_t>(chars_.size()));
  if (FlatHashCapacityFor(ends_.size()) > index_.size()) {
    Rehash();
  } else {
    index_[slot] = id;
  }
  return id;
}

util::Result<TagId> TagVocabulary::Find(std::string_view tag) const {
  if (!index_.empty()) {
    const TagId id = index_[Slot(tag)];
    if (id != kEmptySlot) return id;
  }
  return util::Status::NotFound("unknown tag: " + std::string(tag));
}

std::string_view TagVocabulary::Name(TagId id) const {
  assert(id < ends_.size());
  const uint32_t begin = id == 0 ? 0 : ends_[id - 1];
  return std::string_view(chars_).substr(begin, ends_[id] - begin);
}

size_t TagVocabulary::Slot(std::string_view tag) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(tag) & mask;;
       i = (i + 1) & mask) {
    if (index_[i] == kEmptySlot || Name(index_[i]) == tag) return i;
  }
}

void TagVocabulary::Rehash() {
  index_.assign(FlatHashCapacityFor(ends_.size()), kEmptySlot);
  for (TagId id = 0; id < ends_.size(); ++id) {
    index_[Slot(Name(id))] = id;
  }
}

}  // namespace core
}  // namespace incentag
