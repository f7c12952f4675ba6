// smst_lint fixture: sharded-runtime violations. Lives under a
// `sharded/` path segment so the shard rules apply, exactly as they do
// to the sharded simulator backend. Lint input only — never compiled.

namespace fixture {

struct Ring;
struct WireEntry {
  unsigned node = 0;
  const void* payload = nullptr;
};
struct Barrier {
  void arrive_and_wait();
};
struct Exchange {
  void Push(unsigned shard, unsigned lane, const WireEntry& e);
  void DrainInto(unsigned shard, unsigned lane, Ring& out);
};
struct Metrics {
  unsigned long sends = 0;
};

// Draining before the first barrier reads rings that peer shards are
// still writing.
void DrainTooEarly(Barrier& barrier, Exchange& ex, Ring& ring) {
  ex.DrainInto(0, 1, ring);  // shard-barrier-order
  barrier.arrive_and_wait();
}

// Pushing after the last barrier races the receiving shard's drain.
void PushTooLate(Barrier& barrier, Exchange& ex, const WireEntry& e) {
  barrier.arrive_and_wait();
  ex.Push(0, 1, e);  // shard-barrier-order
}

// A pointer to this shard's private metrics escapes into a wire entry;
// the receiving shard would touch unsynchronized state.
void LeakMetrics(Exchange& ex) {
  Metrics metrics;
  WireEntry e{1, &metrics};  // shard-local-escape
  ex.Push(0, 1, e);
}

// Likewise a pointer to this shard's round core.
struct FlatEngine {
  unsigned long round = 0;
};
void LeakCore(Exchange& ex) {
  FlatEngine core;
  WireEntry e{2, &core};  // shard-local-escape
  ex.Push(0, 1, e);
}

}  // namespace fixture
