// Fuzz target for the JSON reader behind every /v1 request body
// (util::json::Parse). The input is a document's bytes. Built two ways:
// linked into util_json_fuzz_test, whose gtest cases replay a seed
// corpus and seeded mutations through it, and alone with clang's
// -fsanitize=fuzzer as a libFuzzer binary.
//
// Beyond "no crash, no out-of-bounds read", it checks that the writer
// and the reader agree: every document Parse accepts serializes with
// Dump() to a document that parses again, to an equal value that dumps
// to the same bytes.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/json.h"
#include "src/util/logging.h"

namespace {

using incentag::util::json::Value;

// Same kind and contents, members in order; numbers compare as doubles.
bool Equal(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.bool_value() == b.bool_value();
    case Value::Kind::kNumber:
      return a.number_value() == b.number_value();
    case Value::Kind::kString:
      return a.string_value() == b.string_value();
    case Value::Kind::kArray:
      if (a.items().size() != b.items().size()) return false;
      for (size_t i = 0; i < a.items().size(); ++i) {
        if (!Equal(a.items()[i], b.items()[i])) return false;
      }
      return true;
    case Value::Kind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first ||
            !Equal(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace json = incentag::util::json;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  auto parsed = json::Parse(text);
  if (!parsed.ok()) return 0;
  const std::string dumped = parsed.value().Dump();
  auto again = json::Parse(dumped);
  INCENTAG_CHECK(again.ok());
  INCENTAG_CHECK(Equal(parsed.value(), again.value()));
  INCENTAG_CHECK(again.value().Dump() == dumped);
  return 0;
}
