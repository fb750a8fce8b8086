#include "src/util/json.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace incentag {
namespace util {
namespace json {
namespace {

bool IsJsonSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return c - 'A' + 10;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Recursive-descent parser. Depth is bounded by ParseOptions so a
// hostile body cannot exhaust the stack.
class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Result<Value> Run() {
    Value v;
    Status s = ParseValue(0, &v);
    if (!s.ok()) return s;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::InvalidArgument("json: " + std::string(what) +
                                   " at byte " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsJsonSpace(text_[pos_])) ++pos_;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // `depth` counts the arrays/objects enclosing this value.
  Status ParseValue(int depth, Value* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        *out = Value::Null();
        return Status::OK();
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        *out = Value::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        *out = Value::Bool(false);
        return Status::OK();
      case '"':
        return ParseString(out);
      case '[':
        if (depth >= options_.max_depth) return Error("nesting too deep");
        return ParseArray(depth, out);
      case '{':
        if (depth >= options_.max_depth) return Error("nesting too deep");
        return ParseObject(depth, out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // Leading zero admits no further integer digits.
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // The slice is a valid JSON number by construction, and JSON numbers
    // are a strict subset of strtod's grammar, so conversion cannot fail;
    // out-of-range magnitudes are still rejected below.
    std::string slice(text_.substr(start, pos_ - start));
    double d = std::strtod(slice.c_str(), nullptr);
    if (!std::isfinite(d)) return Error("number out of range");
    *out = Value::Number(d);
    return Status::OK();
  }

  Status ParseString(Value* out) {
    std::string s;
    Status status = ParseRawString(&s);
    if (!status.ok()) return status;
    *out = Value::Str(std::move(s));
    return Status::OK();
  }

  Status ParseRawString(std::string* out) {
    ++pos_;  // Opening quote, verified by the caller.
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          Status s = ParseHex4(&cp);
          if (!s.ok()) return s;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            s = ParseHex4(&low);
            if (!s.ok()) return s;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      if (!IsHexDigit(c)) return Error("invalid \\u escape");
      v = (v << 4) | static_cast<uint32_t>(HexValue(c));
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ParseArray(int depth, Value* out) {
    ++pos_;  // '['
    Value arr = Value::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = std::move(arr);
      return Status::OK();
    }
    while (true) {
      Value elem;
      Status s = ParseValue(depth + 1, &elem);
      if (!s.ok()) return s;
      arr.Append(std::move(elem));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        return Error("expected ',' or ']' in array");
      }
    }
    *out = std::move(arr);
    return Status::OK();
  }

  Status ParseObject(int depth, Value* out) {
    ++pos_;  // '{'
    Value obj = Value::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = std::move(obj);
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      Status s = ParseRawString(&key);
      if (!s.ok()) return s;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      Value member;
      s = ParseValue(depth + 1, &member);
      if (!s.ok()) return s;
      obj.Set(std::move(key), std::move(member));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        return Error("expected ',' or '}' in object");
      }
    }
    *out = std::move(obj);
    return Status::OK();
  }

  std::string_view text_;
  ParseOptions options_;
  size_t pos_ = 0;
};

void AppendNumber(double d, std::string* out) {
  // Exact integers in the double-safe range print without a fraction so
  // ids/seqs survive a textual round trip unchanged.
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (d == std::floor(d) && std::fabs(d) <= kMaxExact) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

}  // namespace

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

void Value::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      break;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      AppendNumber(number_, out);
      break;
    case Kind::kString:
      AppendQuoted(string_, out);
      break;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : items_) {
        if (!first) out->push_back(',');
        first = false;
        v.DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const Member& m : members_) {
        if (!first) out->push_back(',');
        first = false;
        AppendQuoted(m.first, out);
        out->push_back(':');
        m.second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

Result<Value> Parse(std::string_view text, ParseOptions options) {
  Parser parser(text, options);
  return parser.Run();
}

}  // namespace json
}  // namespace util
}  // namespace incentag
