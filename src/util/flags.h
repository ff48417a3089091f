// Minimal command-line flag parsing for the CLI tool and bench binaries.
// Supports `--key=value`, `--key value`, bare `--switch`, and positional
// arguments (the first positional is conventionally the subcommand).

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace litegpu {

// The closest entry in `candidates` within 2 edits of `name` ("" when
// nothing is close). Powers "did you mean" hints for flag typos and for
// enum-like JSON fields (arrival kinds, autoscaler policies).
std::string ClosestCandidate(const std::string& name,
                             const std::vector<std::string>& candidates);

class Flags {
 public:
  // Parses argv (argv[0] skipped). Unknown flags are kept; validation is
  // the caller's job via Has()/typed getters and UnknownFlagCheck.
  // Keys in `switches` are known booleans: they never consume the next
  // token as a value, so `--json file.txt` keeps file.txt positional.
  static Flags Parse(int argc, const char* const* argv,
                     const std::vector<std::string>& switches = {});

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  // Return fallback when the flag is absent, when its value does not parse
  // in full, or (GetInt) when it lies outside int's range.
  double GetDouble(const std::string& key, double fallback) const;
  int GetInt(const std::string& key, int fallback) const;
  // A switch: fallback when absent, true when bare or true|1|yes|on, false
  // for false|0|no|off, and nullopt for any other value.
  std::optional<bool> GetBool(const std::string& key, bool fallback = false) const;

  // Rejects typos: returns "" when every parsed flag key is in `allowed`,
  // else a message naming the first unknown flag — with a "did you mean"
  // suggestion when an allowed spelling is close. Callers print the message
  // and exit nonzero.
  std::string UnknownFlagCheck(const std::vector<std::string>& allowed) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  std::string Subcommand() const {
    return positionals_.empty() ? "" : positionals_.front();
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace litegpu
