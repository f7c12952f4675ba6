// smst_lint fixture: sleeping-model/CONGEST violations. Lives under a
// `mst/` path segment so the directory-scoped rules apply, exactly as
// they do to src/smst/mst/. Lint input only — never compiled.
#include <cstdint>
#include <unordered_map>

namespace fixture {

class FlatEngine;  // congest-scheduler-access (x1: declaration names it)

struct NodeContext {
  FlatEngine* engine;  // congest-scheduler-access
};

std::uint64_t TallyByFragment(const NodeContext& ctx) {
  std::unordered_map<std::uint64_t, int> per_frag;  // decl alone: no finding
  (void)ctx;
  std::uint64_t digest = 0;
  for (const auto& [frag, n] : per_frag) {  // det-unordered-iter
    digest = digest * 31 + frag + static_cast<std::uint64_t>(n);
  }
  return digest;  // det-unordered-protocol: hash-order digest escapes
}

std::uint64_t PackLanesUnguarded(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c, std::uint64_t d) {
  return a | (b << 16) | (c << 32) | (d << 48);  // congest-lane-pack
}

}  // namespace fixture
