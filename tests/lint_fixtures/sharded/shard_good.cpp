// smst_lint fixture: sharded-runtime shapes that must NOT be flagged.
// Lint input only — never compiled.

namespace fixture {

struct WireEntry {
  unsigned node = 0;
  const void* payload = nullptr;
};
struct Outbox {
  void push_back(const WireEntry& e);
};
struct Metrics {
  unsigned long sends = 0;
};

// Wire entries carry values; a worker may still take addresses of its
// own state for private use outside the wire surface.
unsigned LocalAddressesPrivately(Outbox& out, const WireEntry& in) {
  Metrics metrics;
  Metrics* mine = &metrics;  // private use: never crosses the wire
  WireEntry e{in.node, nullptr};
  out.push_back(e);
  return mine->sends != 0 ? 1u : 0u;
}

}  // namespace fixture
