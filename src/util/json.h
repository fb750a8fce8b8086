// Minimal JSON document model + parser for the HTTP edge.
//
// The obs exporters render JSON with hand-built strings (write-only);
// the HTTP ingestion tier also has to *read* JSON — request bodies carry
// campaign submissions and completion batches — so this header adds the
// read side: a small immutable Value tree, a strict RFC 8259 parser with
// hard depth/size limits (request bodies are attacker-controlled), and a
// compact serializer for responses.
//
// Scope is deliberately small: UTF-8 in/out, numbers as double (campaign
// ids and seqs fit in the 2^53 exact-integer range; the parser rejects
// nothing in range), objects keep insertion order and Find returns the
// first match. No streaming, no comments, no NaN/Inf.
#ifndef INCENTAG_UTIL_JSON_H_
#define INCENTAG_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace incentag {
namespace util {
namespace json {

class Value;

// Object members in insertion order. Duplicate keys are kept as parsed;
// Find returns the first.
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static Value Int(int64_t i) {
    return Number(static_cast<double>(i));
  }
  static Value Str(std::string s) {
    Value v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static Value Array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Accessors are forgiving on kind mismatch (return the default for the
  // requested type) so DTO decoding can validate once with kind() and
  // read without asserting.
  bool bool_value() const { return is_bool() && bool_; }
  double number_value() const { return is_number() ? number_ : 0.0; }
  // number_value() truncated toward zero; 0 for non-numbers.
  int64_t int_value() const { return static_cast<int64_t>(number_value()); }
  const std::string& string_value() const { return string_; }

  const std::vector<Value>& items() const { return items_; }
  const std::vector<Member>& members() const { return members_; }

  // Array/object builders (no-ops on other kinds).
  void Append(Value v) {
    if (is_array()) items_.push_back(std::move(v));
  }
  void Set(std::string key, Value v) {
    if (is_object()) members_.emplace_back(std::move(key), std::move(v));
  }

  // First member named `key`; null when absent or not an object.
  const Value* Find(std::string_view key) const;

  // Compact serialization (no whitespace). Doubles that hold an exact
  // integer in the +-2^53 range print without a fraction, so ids and
  // seqs round-trip textually.
  std::string Dump() const;
  void DumpTo(std::string* out) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

struct ParseOptions {
  // Maximum nesting of arrays/objects (a document of max_depth nested
  // containers parses, one more does not); attacker-controlled bodies
  // must not be able to recurse the stack away.
  int max_depth = 64;
};

// Parses exactly one JSON document; trailing non-whitespace is an error
// (kInvalidArgument, with a byte offset in the message).
Result<Value> Parse(std::string_view text, ParseOptions options = {});

// Appends `s` as a JSON string literal (quotes + escapes) to `out` —
// shared by Dump and by hand-rolled encoders that build documents
// without a Value tree.
void AppendQuoted(std::string_view s, std::string* out);

}  // namespace json
}  // namespace util
}  // namespace incentag

#endif  // INCENTAG_UTIL_JSON_H_
