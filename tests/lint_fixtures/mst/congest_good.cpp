// smst_lint fixture: CONGEST-adjacent code that must NOT be flagged,
// under the same `mst/` path scoping as congest_bad.cpp. Lint input
// only — never compiled.
#include <cassert>
#include <cstdint>
#include <map>

namespace fixture {

struct Ctx {
  // Algorithm code reaching the network through the sanctioned API.
  std::uint64_t Awake(std::uint64_t round) { return round; }
};

std::uint64_t UsesOnlyNodeContext(Ctx& ctx) {
  // The word "FlatEngine" in a comment or string is not an access.
  const char* note = "driven by the FlatEngine elsewhere";
  return ctx.Awake(3) + note[0];
}

std::uint64_t SortedContainersFine() {
  std::map<std::uint64_t, int> per_frag;  // ordered: deterministic
  per_frag[7] = 1;
  return per_frag.size();
}

std::uint64_t PackLanesGuarded(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c, std::uint64_t d) {
  assert(a >> 16 == 0 && b >> 16 == 0 && c >> 16 == 0 && d >> 16 == 0);
  return a | (b << 16) | (c << 32) | (d << 48);  // guarded: not flagged
}

std::uint64_t SingleShiftFine(std::uint64_t lo, std::uint64_t hi) {
  return (lo << 32) | hi;  // one lane boundary, graph.cpp edge-key idiom
}

}  // namespace fixture
