// Minimal command-line flag parser for the CLI tool and examples.
// Supports --name value and --name=value, typed lookups with defaults,
// and unknown-flag detection. Also home of the one unsigned-integer
// parser every outside input goes through (flags, fault-plan specs,
// edge lists).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace smst {

// Parses a plain unsigned decimal: one or more ASCII digits and nothing
// else — no sign, whitespace, "0x" prefix or exponent, so typos like
// "-1" cannot wrap into enormous values. Returns nullopt for any other
// text or a value above `max`; the caller raises the error with its own
// context (a flag name, a fault-plan item, an edge-list line).
std::optional<std::uint64_t> ParsePlainDecimal(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

class ArgParser {
 public:
  // Parses argv; throws std::invalid_argument on malformed input
  // (non-flag tokens, missing values).
  ArgParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::uint64_t GetUint(const std::string& name, std::uint64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  // Flags that were provided but never looked up (typo detection).
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace smst
