#include "symtab.h"

namespace smst_lint {
namespace {

// Identifiers that can never be a declared variable's name or type.
bool IsReservedWord(const Token& tok) {
  return IsAnyOf(tok, {"return",   "co_return", "co_await", "co_yield",
                       "if",       "else",      "for",      "while",
                       "do",       "switch",    "case",     "default",
                       "break",    "continue",  "goto",     "throw",
                       "new",      "delete",    "sizeof",   "alignof",
                       "operator", "template",  "typename", "using",
                       "namespace", "class",    "struct",   "enum",
                       "public",   "private",   "protected", "static_assert"});
}

// True when the type name at `i` — with its `ns::` qualifiers and
// decl-specifiers — starts a statement, a label's statement, a parameter
// or a control-flow header. Only there is `T * name` / `T & name` a
// declaration; anywhere else (`x = a * b;`, `return a & b;`) it is a
// product or a bitwise and.
bool StartsDeclaration(const Tokens& t, std::size_t i) {
  while (i >= 2 && t[i - 1].Is("::") && t[i - 2].kind == Token::Kind::kIdent) {
    i -= 2;
  }
  if (i >= 1 && t[i - 1].Is("::")) --i;  // a leading global `::`
  while (i > 0 && IsAnyOf(t[i - 1], {"const", "constexpr", "static",
                                     "volatile", "thread_local", "typename",
                                     "unsigned", "signed", "long", "short"})) {
    --i;
  }
  return i == 0 || IsAnyOf(t[i - 1], {";", "{", "}", ":", "(", ","});
}

// Walks back from the token before a declared name to the type-ish
// identifier, skipping cv/ref/pointer decorations and template argument
// lists. Returns "" when the shape is not a declaration.
std::string TypeLeftOf(const Tokens& t, std::size_t name_idx) {
  std::size_t k = name_idx;
  bool indirect = false;  // a `*`, `&` or `&&` between type and name
  while (k > 0 &&
         (t[k - 1].Is("&") || t[k - 1].Is("&&") || t[k - 1].Is("*") ||
          t[k - 1].IsIdent("const") || t[k - 1].IsIdent("constexpr"))) {
    indirect |= t[k - 1].kind == Token::Kind::kPunct;
    --k;
  }
  if (k == 0) return "";
  if (t[k - 1].Is(">") || t[k - 1].Is(">>")) {
    // Skip the template argument list backwards. `>>` closes two.
    int depth = 0;
    std::size_t i = k;
    while (i-- > 0) {
      if (t[i].Is(">")) ++depth;
      if (t[i].Is(">>")) depth += 2;
      if (t[i].Is("<") && --depth == 0) break;
      if (t[i].Is(";") || t[i].Is("{") || t[i].Is("}")) return "";
    }
    if (i == 0 || depth != 0) return "";
    k = i;  // now at `<`; the type name is just left of it
  }
  if (k == 0 || t[k - 1].kind != Token::Kind::kIdent ||
      IsReservedWord(t[k - 1])) {
    return "";
  }
  if (indirect && !StartsDeclaration(t, k - 1)) return "";
  return t[k - 1].text;
}

}  // namespace

SymbolTable SymbolTable::Build(const Tokens& t, const ParsedFile& parsed,
                               const Fn& fn) {
  SymbolTable table;

  // --- Parameters: split the parameter list at top-level commas. -------
  if (fn.params_end > fn.params_begin) {
    std::size_t chunk_start = fn.params_begin + 1;
    int depth = 0;
    for (std::size_t i = fn.params_begin + 1; i <= fn.params_end; ++i) {
      const bool at_end = i == fn.params_end;
      if (!at_end) {
        if (t[i].Is("(") || t[i].Is("[") || t[i].Is("{") || t[i].Is("<")) {
          ++depth;
        }
        if (t[i].Is(")") || t[i].Is("]") || t[i].Is("}") || t[i].Is(">")) {
          --depth;
        }
        if (t[i].Is(">>")) depth -= 2;
      }
      if (!at_end && (!t[i].Is(",") || depth != 0)) continue;
      // Chunk [chunk_start, i): the name is the last identifier before a
      // default-argument `=` (if any). Unnamed parameters have no
      // plausible type left of that identifier and are dropped.
      std::size_t effective_end = i;
      for (std::size_t k = chunk_start; k < i; ++k) {
        if (t[k].Is("=")) {
          effective_end = k;
          break;
        }
      }
      std::size_t name_idx = kNoMatch;
      if (effective_end > chunk_start) {
        const std::size_t last = effective_end - 1;
        if (t[last].kind == Token::Kind::kIdent && !IsReservedWord(t[last]) &&
            !t[last].Is("void") && !t[last].Is("const")) {
          name_idx = last;
        }
      }
      if (name_idx != kNoMatch && name_idx > chunk_start) {
        Symbol s;
        s.name = t[name_idx].text;
        s.type = TypeLeftOf(t, name_idx);
        s.line = t[name_idx].line;
        s.decl_index = name_idx;
        s.scope_begin = fn.body_begin;
        s.scope_end = fn.body_end;
        s.is_param = true;
        if (!s.type.empty()) table.symbols_.push_back(std::move(s));
      }
      chunk_start = i + 1;
    }
  }

  // --- Body declarations. ----------------------------------------------
  // Control-flow headers extend a header declaration's scope over the
  // controlled statement: record (header `(`, controlled end) pairs.
  struct HeaderScope {
    std::size_t open = 0, close = 0, stmt_end = 0;
  };
  std::vector<HeaderScope> headers;
  for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
    if (!IsAnyOf(t[i], {"for", "if", "while", "switch", "catch"}) ||
        t[i].kind != Token::Kind::kIdent || !t[i + 1].Is("(")) {
      continue;
    }
    HeaderScope h;
    h.open = i + 1;
    h.close = parsed.match[h.open] != kNoMatch
                  ? parsed.match[h.open]
                  : MatchForward(t, h.open, "(", ")");
    if (h.close >= fn.body_end) continue;
    std::size_t after = h.close + 1;
    if (after < fn.body_end && t[after].Is("{")) {
      h.stmt_end = parsed.match[after] != kNoMatch
                       ? parsed.match[after]
                       : MatchForward(t, after, "{", "}");
    } else {
      while (after < fn.body_end && !t[after].Is(";")) ++after;
      h.stmt_end = after;
    }
    headers.push_back(h);
  }

  auto scope_for = [&](std::size_t decl_idx) -> std::pair<std::size_t,
                                                          std::size_t> {
    // Header declarations live to the end of the controlled statement.
    for (std::size_t h = headers.size(); h-- > 0;) {
      if (headers[h].open < decl_idx && decl_idx < headers[h].close) {
        return {headers[h].open, headers[h].stmt_end};
      }
    }
    // Otherwise: the innermost brace block containing the declaration.
    std::size_t begin = fn.body_begin, end = fn.body_end;
    for (std::size_t k = fn.body_begin; k < decl_idx; ++k) {
      if (!t[k].Is("{")) continue;
      const std::size_t close = parsed.match[k];
      if (close != kNoMatch && close > decl_idx && k > begin &&
          close < end) {
        begin = k;
        end = close;
      }
    }
    return {begin, end};
  };

  auto in_for_header = [&](std::size_t idx) {
    for (const HeaderScope& h : headers) {
      if (h.open < idx && idx < h.close) return true;
    }
    return false;
  };

  for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
    // Structured bindings: auto [cv/ref] `[` a, b `]`.
    if (t[i].Is("[") && i > 0) {
      std::size_t q = i;
      while (q > fn.body_begin &&
             (t[q - 1].Is("&") || t[q - 1].Is("&&") ||
              t[q - 1].IsIdent("const"))) {
        --q;
      }
      if (q > fn.body_begin && t[q - 1].IsIdent("auto")) {
        const std::size_t close = parsed.match[i] != kNoMatch
                                      ? parsed.match[i]
                                      : MatchForward(t, i, "[", "]");
        const auto [sb, se] = scope_for(i);
        for (std::size_t k = i + 1; k < close && k < fn.body_end; ++k) {
          if (t[k].kind != Token::Kind::kIdent) continue;
          Symbol s;
          s.name = t[k].text;
          s.type = "auto";
          s.line = t[k].line;
          s.decl_index = k;
          s.scope_begin = sb;
          s.scope_end = se;
          table.symbols_.push_back(std::move(s));
        }
        i = close;
        continue;
      }
    }

    if (t[i].kind != Token::Kind::kIdent || IsReservedWord(t[i])) continue;
    const Token& next = t[i + 1];
    // Declaration tails: `= init`, `;`, `{init}`, `(init)` is too
    // call-ambiguous to accept, and `:` only inside a range-for header.
    const bool eq_tail = next.Is("=") && !(i + 2 < fn.body_end &&
                                           t[i + 2].Is("="));  // not `==`
    const bool tail = eq_tail || next.Is(";") || next.Is("{") ||
                      (next.Is(":") && in_for_header(i + 1));
    if (!tail) continue;
    // `a = b` where `a` is a member (`x.a = ...`) or a known comparison
    // (`a == b` handled above) is not a declaration; TypeLeftOf rejects
    // everything without a plausible type to its left.
    const std::string type = TypeLeftOf(t, i);
    if (type.empty()) continue;

    const auto [sb, se] = scope_for(i);
    Symbol s;
    s.name = t[i].text;
    s.type = type;
    s.line = t[i].line;
    s.decl_index = i;
    s.scope_begin = sb;
    s.scope_end = se;
    table.symbols_.push_back(std::move(s));
  }
  return table;
}

const Symbol* SymbolTable::LookupAt(std::string_view name,
                                    std::size_t at) const {
  const Symbol* best = nullptr;
  for (const Symbol& s : symbols_) {
    if (s.name != name) continue;
    if (s.decl_index > at || at > s.scope_end) continue;
    if (best == nullptr || s.scope_begin >= best->scope_begin) best = &s;
  }
  return best;
}

}  // namespace smst_lint
