// smst_lint rule packs.
//
// Five packs, mirroring the project's correctness pillars (DESIGN.md §11
// and §14):
//
//   det-*      determinism: no wall clocks, no ambient randomness, no
//              hash-order dataflow reaching reads or the protocol surface
//              (flow.h), no pointer-valued keys.
//   congest-*  sleeping-model/CONGEST locality: algorithm code touches the
//              network only through NodeContext/Awake/SendBatch; lane
//              packing carries a width guard.
//   coro-*     coroutine safety: no dangerous lambda captures in
//              coroutines, no value-returning Task without co_return, no
//              local addresses escaping across a co_await.
//   flat-*     flat-lowering discipline for the Duff's-device state
//              machines (runtime/flat/flat_driver.h: the toolbox
//              procedures and the MST drivers): no locals alive across a
//              resume point, no missing case 0 / default, no implicit
//              fallthrough between resume labels, no tag/error-string
//              drift between a flat class and its coroutine twin.
//   shard-*    sharded-runtime discipline: no shard-local state escaping
//              into wire entries.
//
// Every rule is a heuristic over the parsed token tree (parser.h) with a
// per-function symbol table (symtab.h) and, for the det dataflow rules, a
// linear statement-flow walk (flow.h) — precise enough to catch the
// project's actual failure modes, suppressible with
// `// smst-lint-disable(rule-id)` where a human has checked the site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace smst_lint {

struct Finding {
  std::string file;
  std::uint32_t line = 0;
  std::string rule;
  std::string message;
  // Whitespace-collapsed text of the source line, captured at analysis
  // time — baseline keys hash this (baseline.h).
  std::string norm_text;
  bool baselined = false;

  bool operator==(const Finding&) const = default;
};

// Trims and collapses runs of whitespace to single spaces.
std::string NormalizeLine(const std::string& line);

struct RuleDesc {
  std::string_view id;
  std::string_view summary;
};

// All rules, for --list-rules and docs.
const std::vector<RuleDesc>& AllRules();

// Facts the flat-twin-drift rule compares across translation units: the
// message tags (identifiers starting with "kTag") and the string-literal
// contents used inside a span.
struct TwinFacts {
  std::vector<std::string> tags;      // sorted, unique
  std::vector<std::string> literals;  // sorted, unique
};

// One twin directive (the `smst-lint-twin` tag, see lexer.h), resolved
// enough to cross-check after all files are analyzed.
struct TwinRef {
  std::string flat_class;
  std::string coro_name;
  std::uint32_t line = 0;     // line of the directive
  bool suppressed = false;    // inline suppression covers the directive line
  std::string norm_text;      // of the directive line, for baseline keys
};

// Per-file analysis result. `findings` covers every single-TU rule;
// twin directives and the tag/literal facts feed the cross-TU
// flat-twin-drift pass (CrossCheckTwins).
struct FileAnalysis {
  std::string path;
  std::vector<Finding> findings;
  std::vector<TwinRef> twins;
  // Union of member-function facts per class declared-or-defined here.
  std::map<std::string, TwinFacts> class_facts;
  // Facts per free/member function name (the coroutine side of a twin).
  std::map<std::string, TwinFacts> fn_facts;
};

// Runs every single-TU rule pack over one lexed file. Findings are sorted
// by (line, rule) and already filtered through the file's inline
// suppressions; baseline filtering happens later (baseline.h).
FileAnalysis AnalyzeFile(const LexedFile& file);

// Cross-TU pass: for every twin directive, compares the flat class's
// facts in the directive's own file against the coroutine's facts across
// all analyzed files and appends flat-twin-drift findings (at the
// directive's line) to the directive's file. Call after all AnalyzeFile results are collected;
// deterministic given the same input set in any order.
void CrossCheckTwins(std::vector<FileAnalysis>& files);

}  // namespace smst_lint
