// smst_lint baseline: pre-existing findings that don't block the build.
//
// v2 entries key on (file, rule, content hash of the normalized source
// line) rather than line numbers, so unrelated edits above a baselined
// site don't invalidate the baseline and long lines don't bloat the file.
// Format, one entry per line:
//
//   path|rule-id|h:<16 hex digits>
//
// The hash is FNV-1a 64 over the line text with ALL whitespace stripped,
// so reformatting alone doesn't unbaseline a finding (changing the code
// does — which is the point). Any other non-comment line is a parse
// error.
//
// `#` starts a comment; blank lines are ignored.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "rules.h"

namespace smst_lint {

class Baseline {
 public:
  // Parses baseline text (the file's contents). Unparseable lines are
  // reported via `errors`, each naming its line number.
  static Baseline Parse(const std::string& text,
                        std::vector<std::string>* errors);

  // Key for a finding: path|rule|h:<hash of norm_text sans whitespace>.
  static std::string KeyFor(const Finding& f);

  void Insert(std::string key) { keys_.emplace(std::move(key), false); }

  // True when the finding matches an entry; the matching entry is
  // marked used (the survivors of --prune-baseline).
  bool Matches(const Finding& f);

  // Serialized, sorted, with a header comment — for --write-baseline.
  std::string Serialize() const;

  // Only the entries that matched a finding this run — the output of
  // --prune-baseline. `dropped` reports how many entries the prune
  // removed.
  std::string SerializeUsed(std::size_t* dropped) const;

 private:
  // key -> used this run
  std::map<std::string, bool> keys_;
};

}  // namespace smst_lint
