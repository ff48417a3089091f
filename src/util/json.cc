#include "src/util/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace litegpu {

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json& Json::Set(const std::string& key, Json value) {
  type_ = Type::kObject;
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

Json& Json::Append(Json value) {
  type_ = Type::kArray;
  elements_.push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return elements_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

bool Json::AsBool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double Json::AsDouble(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

int Json::AsInt(int fallback) const {
  return type_ == Type::kNumber ? static_cast<int>(std::llround(number_)) : fallback;
}

uint64_t Json::AsUint64(uint64_t fallback) const {
  if (is_uint64_) {
    return uint64_;
  }
  // The upper bound is 2^64 as a double; casting values at or above it (or
  // negative ones) is UB, so both fall back.
  if (type_ != Type::kNumber || number_ < 0.0 || number_ >= 18446744073709551616.0) {
    return fallback;
  }
  return static_cast<uint64_t>(number_);
}

std::string Json::AsString(const std::string& fallback) const {
  return type_ == Type::kString ? string_ : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsBool(fallback) : fallback;
}

double Json::GetDouble(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsDouble(fallback) : fallback;
}

int Json::GetInt(const std::string& key, int fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsInt(fallback) : fallback;
}

std::string Json::GetString(const std::string& key, const std::string& fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsString(fallback) : fallback;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) {
    return false;
  }
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.number_ == b.number_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.elements_ == b.elements_;
    case Json::Type::kObject:
      return a.members_ == b.members_;
  }
  return false;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// Shortest decimal form that parses back to exactly the same double.
void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    out += buf;
    return;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  out += buf;
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  auto newline = [&](int d) {
    if (pretty) {
      out.push_back('\n');
      out.append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      AppendEscaped(out, string_);
      break;
    case Type::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (size_t i = 0; i < elements_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        elements_[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        AppendEscaped(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  std::optional<Json> Run() {
    SkipWhitespace();
    Json value;
    if (!ParseValue(value)) {
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON value");
    }
    return value;
  }

 private:
  std::optional<Json> Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "line " + std::to_string(line_) + ": " + message;
    }
    return std::nullopt;
  }
  bool FailValue(const std::string& message) {
    Fail(message);
    return false;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char Next() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
    }
    return c;
  }

  // Tolerant extras live here: // and /* */ comments are whitespace.
  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        Next();
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && Peek() != '\n') {
          Next();
        }
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        Next();
        Next();
        while (pos_ + 1 < text_.size() && !(Peek() == '*' && text_[pos_ + 1] == '/')) {
          Next();
        }
        if (pos_ + 1 >= text_.size()) {
          return;  // unterminated comment; the value parser will report EOF
        }
        Next();
        Next();
      } else {
        return;
      }
    }
  }

  bool Consume(char expected, const char* what) {
    if (Peek() != expected) {
      return FailValue(std::string("expected ") + what);
    }
    Next();
    return true;
  }

  bool ParseValue(Json& out) {
    switch (Peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return FailValue("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        bool ok = Peek() == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      case '\0':
        return FailValue("unexpected end of input");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Json& out) {
    Next();  // '{'
    out = Json::Object();
    SkipWhitespace();
    if (Peek() == '}') {
      Next();
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (Peek() == '}') {  // tolerant: trailing comma
        Next();
        return true;
      }
      Json key;
      if (Peek() != '"' || !ParseString(key)) {
        return FailValue("expected object key string");
      }
      SkipWhitespace();
      if (!Consume(':', "':' after object key")) {
        return false;
      }
      SkipWhitespace();
      Json value;
      if (!ParseValue(value)) {
        return false;
      }
      out.Set(key.AsString(), std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        Next();
        continue;
      }
      return Consume('}', "',' or '}' in object");
    }
  }

  bool ParseArray(Json& out) {
    Next();  // '['
    out = Json::Array();
    SkipWhitespace();
    if (Peek() == ']') {
      Next();
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (Peek() == ']') {  // tolerant: trailing comma
        Next();
        return true;
      }
      Json value;
      if (!ParseValue(value)) {
        return false;
      }
      out.Append(std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        Next();
        continue;
      }
      return Consume(']', "',' or ']' in array");
    }
  }

  bool ParseString(Json& out) {
    Next();  // '"'
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) {
        return FailValue("unterminated string");
      }
      char c = Next();
      if (c == '"') {
        out = Json(std::move(s));
        return true;
      }
      if (c != '\\') {
        s.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return FailValue("unterminated escape");
      }
      char esc = Next();
      switch (esc) {
        case '"':
          s.push_back('"');
          break;
        case '\\':
          s.push_back('\\');
          break;
        case '/':
          s.push_back('/');
          break;
        case 'n':
          s.push_back('\n');
          break;
        case 'r':
          s.push_back('\r');
          break;
        case 't':
          s.push_back('\t');
          break;
        case 'b':
          s.push_back('\b');
          break;
        case 'f':
          s.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return FailValue("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = Next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return FailValue("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point (BMP only; surrogates pass through
          // as replacement — scenario files are ASCII in practice).
          if (code < 0x80) {
            s.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (code >> 6)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            s.push_back(static_cast<char>(0xE0 | (code >> 12)));
            s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return FailValue("unknown escape character");
      }
    }
  }

  bool ParseKeyword(Json& out) {
    static const struct {
      const char* word;
      Json value;
    } kKeywords[] = {{"true", Json(true)}, {"false", Json(false)}, {"null", Json()}};
    for (const auto& kw : kKeywords) {
      size_t len = std::string(kw.word).size();
      if (text_.compare(pos_, len, kw.word) == 0) {
        pos_ += len;
        out = kw.value;
        return true;
      }
    }
    return FailValue("unrecognized token");
  }

  bool ParseNumber(Json& out) {
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) {
      return FailValue("expected a value");
    }
    std::string token = text_.substr(start, pos_ - start);
    std::optional<Json> value = Json::ParseNumber(token);
    if (!value) {
      return FailValue("malformed number '" + token + "'");
    }
    out = std::move(*value);
    return true;
  }

  // Objects and arrays parse by recursion, so nesting is capped to keep a
  // hostile input from overflowing the stack.
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;  // containers currently open
};

}  // namespace

std::optional<Json> Json::Parse(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  return Parser(text, error).Run();
}

std::optional<Json> Json::ParseNumber(const std::string& token) {
  const bool digits = !token.empty() && std::all_of(token.begin(), token.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
  char* end = nullptr;
  if (digits) {
    errno = 0;
    unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (errno != ERANGE) {
      return Json(static_cast<uint64_t>(value));
    }
  }
  double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return Json(value);
}

std::optional<Json> Json::ParseFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "'";
    }
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), error);
}

}  // namespace litegpu
