// Little-endian wire encoding shared by the persist layer's journal
// records and the core layer's resumable-state snapshots.
//
// The format is deliberately primitive — fixed-width little-endian
// integers, raw IEEE-754 bit patterns for doubles, length-prefixed byte
// strings — because both producers need *bit-exact* round trips:
// recovery from a serialized core::CampaignRuntime is only byte-identical
// to a journal replay if every accumulated double restores to the exact
// bits that were saved. Writers append to a std::string; Reader is a
// bounds-checked cursor that never reads past its view and reports
// exhaustion instead of throwing.
#ifndef INCENTAG_UTIL_WIRE_H_
#define INCENTAG_UTIL_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace incentag {
namespace util {
namespace wire {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

// Raw IEEE-754 bits, so the value restores bit-exactly (NaNs included).
inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

// Bounds-checked cursor over an encoded buffer. Every getter returns
// false (and leaves the output unspecified) when the buffer is too
// short; decoding code turns that into a corruption error.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (data_.size() - pos_ < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  // A flag PutU8 wrote as 0 or 1; any other byte is corruption (it
  // would not encode back to itself).
  bool GetBool(bool* v) {
    uint8_t byte = 0;
    if (!GetU8(&byte) || byte > 1) return false;
    *v = byte == 1;
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (data_.size() - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool GetI64(int64_t* v) {
    uint64_t raw;
    if (!GetU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }

  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool GetString(std::string* v) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (data_.size() - pos_ < len) return false;
    v->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  // Zero-copy view variant of GetString; the view aliases the Reader's
  // underlying buffer.
  bool GetStringView(std::string_view* v) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (data_.size() - pos_ < len) return false;
    *v = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  // Zero-copy view of the next `length` bytes.
  bool GetBytesView(size_t length, std::string_view* v) {
    if (data_.size() - pos_ < length) return false;
    *v = data_.substr(pos_, length);
    pos_ += length;
    return true;
  }

  // Consumes `expected` when the unread bytes start with it; otherwise
  // consumes nothing and returns false.
  bool SkipExpected(std::string_view expected) {
    if (data_.size() - pos_ < expected.size() ||
        data_.compare(pos_, expected.size(), expected) != 0) {
      return false;
    }
    pos_ += expected.size();
    return true;
  }

  bool exhausted() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace wire
}  // namespace util
}  // namespace incentag

#endif  // INCENTAG_UTIL_WIRE_H_
