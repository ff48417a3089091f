#include "src/util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace litegpu {

namespace {

// Classic edit distance, small strings only (flag names).
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> curr(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t substitute = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

}  // namespace

std::string ClosestCandidate(const std::string& name,
                             const std::vector<std::string>& candidates) {
  size_t best_distance = 3;  // within 2 edits counts as "plausibly a typo"
  const std::string* best = nullptr;
  for (const auto& candidate : candidates) {
    size_t d = EditDistance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = &candidate;
    }
  }
  return best == nullptr ? "" : *best;
}

Flags Flags::Parse(int argc, const char* const* argv,
                   const std::vector<std::string>& switches) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positionals_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag and the key is
    // not a declared boolean switch; else a bare switch.
    bool is_switch = std::find(switches.begin(), switches.end(), body) != switches.end();
    if (!is_switch && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[i + 1];
      ++i;
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::UnknownFlagCheck(const std::vector<std::string>& allowed) const {
  for (const auto& entry : values_) {
    const std::string& key = entry.first;
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    std::string message = "unknown flag --" + key;
    // Suggest the closest allowed flag when it is plausibly a typo (within
    // 2 edits, e.g. --thread -> --threads, --mdoel -> --model).
    std::string best = ClosestCandidate(key, allowed);
    if (!best.empty()) {
      message += " (did you mean --" + best + "?)";
    }
    return message;
  }
  return "";
}

std::string Flags::GetString(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::optional<double> Flags::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const char* text = it->second.c_str();
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    return std::nullopt;
  }
  return value;
}

std::optional<int> Flags::GetInt(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<bool> Flags::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  return std::nullopt;
}

}  // namespace litegpu
