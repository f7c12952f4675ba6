// smst_lint symbol table: per-function declarations with heuristic types
// and scope extents.
//
// Built once per function span from the parsed token tree. Declarations
// are recognized by shape, not by name lookup:
//
//   Type [<args>] [const] [&|&&|*]... name  ( = | ; | { | , in a header )
//   auto [a, b, ...] = ...                       (structured bindings)
//   for (Type x : range) / if (auto m = ...; ...)  (header-scoped)
//
// With a `*`, `&` or `&&` between them, `Type` must start a statement,
// a parameter or a header (after `;`, `{`, `}`, `:`, `(` or `,`, past
// any `ns::` qualifiers and decl-specifiers): `s = a * b;` is a product,
// not a declaration of `b`.
//
// A symbol's `type` is the last type-ish identifier left of its name
// (template arguments skipped), which is exactly enough for the rules:
// "is this an unordered container", "is this per-shard core/Metrics
// state". Its scope is the innermost brace block containing the
// declaration — extended to the controlled statement for declarations in
// `for`/`if`/`while`/`switch` headers — so reads can be tested for
// "after this resume point but still in scope".
//
// What this cannot see (by design): typedefs/aliases, class member
// variables of other TUs, overloads, templates as templates. Rules that
// need more must stay heuristic or move to a real front end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "parser.h"

namespace smst_lint {

struct Symbol {
  std::string name;
  std::string type;  // heuristic; "auto" when deduced or unknown
  std::uint32_t line = 0;
  std::size_t decl_index = 0;   // token index of the name
  std::size_t scope_begin = 0;  // token range in which the symbol is visible
  std::size_t scope_end = 0;
  bool is_param = false;
};

class SymbolTable {
 public:
  // Builds the table for one function: parameters plus body declarations.
  static SymbolTable Build(const Tokens& t, const ParsedFile& parsed,
                           const Fn& fn);

  // Innermost symbol named `name` whose scope covers token index `at`
  // and whose declaration precedes it; nullptr when none.
  const Symbol* LookupAt(std::string_view name, std::size_t at) const;

  const std::vector<Symbol>& All() const { return symbols_; }

 private:
  std::vector<Symbol> symbols_;
};

}  // namespace smst_lint
