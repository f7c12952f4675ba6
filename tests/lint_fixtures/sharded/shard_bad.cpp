// smst_lint fixture: sharded-runtime violations. Lives under a
// `sharded/` path segment so the shard rules apply, exactly as they do
// to the sharded simulator backend. Lint input only — never compiled.

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

// A pointer to this shard's private metrics escapes into a wire entry;
// the receiving shard would touch unsynchronized state.
void LeakMetrics(Outbox& out) {
  Metrics metrics;
  WireEntry e{1, &metrics};  // shard-local-escape
  out.push_back(e);
}

// Likewise a pointer to this shard's round core.
struct FlatEngine {
  unsigned long round = 0;
};
void LeakCore(Outbox& out) {
  FlatEngine core;
  WireEntry e{2, &core};  // shard-local-escape
  out.push_back(e);
}

}  // namespace fixture
