// Minimal JSON support for scenario files and structured report output.
//
// One value type (`Json`) covers writing (every report's ToJson) and reading
// (scenario files). The writer emits standard JSON with insertion-ordered
// object keys and shortest-round-trip numbers, so Dump() output is stable and
// `Parse(Dump(x)) == x`. The reader is *tolerant*: it accepts `//` and
// `/* */` comments plus trailing commas (scenario files are hand-edited),
// and the typed getters fall back to defaults on missing keys or type
// mismatches instead of failing — schema-level strictness belongs to the
// caller (see Scenario validation).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace litegpu {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Scalars. The default-constructed value is null.
  Json() = default;
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : type_(Type::kNumber), number_(value) {}
  Json(int64_t value) : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  // Keeps the exact value too, which the double loses above 2^53; see
  // is_uint64().
  Json(uint64_t value)
      : type_(Type::kNumber), is_uint64_(true), number_(static_cast<double>(value)),
        uint64_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  // Empty containers (distinct from null).
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  // A number built from a uint64_t, or parsed from a token of decimal
  // digits that fits one: AsUint64() returns it exactly. Dump() and ==
  // still go by the double.
  bool is_uint64() const { return is_uint64_; }

  // --- object interface (keys keep insertion order; Set replaces) ---
  Json& Set(const std::string& key, Json value);
  // Null when this is not an object or the key is absent.
  const Json* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const { return members_; }

  // --- array interface ---
  Json& Append(Json value);
  const std::vector<Json>& elements() const { return elements_; }
  size_t size() const;  // element/member count; 0 for scalars

  // --- scalar extraction (fallback on type mismatch) ---
  bool AsBool(bool fallback = false) const;
  double AsDouble(double fallback = 0.0) const;
  int AsInt(int fallback = 0) const;
  uint64_t AsUint64(uint64_t fallback = 0) const;
  std::string AsString(const std::string& fallback = "") const;

  // --- tolerant object lookups: fallback when absent or mismatched ---
  bool GetBool(const std::string& key, bool fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int GetInt(const std::string& key, int fallback) const;
  std::string GetString(const std::string& key, const std::string& fallback) const;

  // Serializes. indent > 0 pretty-prints with that many spaces per level;
  // indent == 0 emits the compact one-line form.
  std::string Dump(int indent = 2) const;

  // Parses `text`; on failure returns nullopt and, when `error` is non-null,
  // a one-line description with the offending line number.
  static std::optional<Json> Parse(const std::string& text, std::string* error = nullptr);
  // Reads and parses a file (error covers I/O failures too).
  static std::optional<Json> ParseFile(const std::string& path, std::string* error = nullptr);
  // One number token: an exact uint64 (see is_uint64()) when it is all
  // decimal digits and fits, else strtod's double; nullopt unless strtod
  // reads all of it.
  static std::optional<Json> ParseNumber(const std::string& token);

  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  bool is_uint64_ = false;
  double number_ = 0.0;
  uint64_t uint64_ = 0;                                 // when is_uint64_
  std::string string_;
  std::vector<Json> elements_;                          // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject
};

}  // namespace litegpu
