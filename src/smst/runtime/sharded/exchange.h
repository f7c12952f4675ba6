// Cross-shard message exchange for the sharded simulator backend.
//
// Every surviving *cross-shard* message of a round — fresh or adversary-
// delayed — travels as a WireEntry through the per-(producer, consumer)
// ring of a ShardExchange; shard-local sends are delivered directly by
// the owner's post-barrier scan and never touch a ring. Receive order
// stays a pure function of the entries themselves: each producer emits
// in ascending source order (it iterates its staged wakers sorted by
// node index), shards own disjoint node sets, and the consumer steps its
// local wakers and its remote stream heads by minimum source — so the
// interleaved sequence equals the serial engine's delivery order exactly,
// for any shard count. DESIGN.md §12 gives the full determinism argument.
//
// Concurrency: each pair ring is single-producer single-consumer with
// acquire/release cursors (the hmbdc-style bounded ring), so a consumer
// may start draining while the producer is still appending. The sharded
// driver additionally separates the produce and consume phases with a
// round barrier; the ring's overflow spill vector relies on that barrier
// (it is produced before the barrier and consumed only after).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/message.h"

namespace smst {

// Bounded single-producer single-consumer ring with an unbounded spill.
// Push never blocks: when the ring is full the entry goes to the spill
// vector, which the consumer reads only after the round barrier.
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity_pow2 = 1024);

  // Producer side only.
  void Push(const WireEntry& e);
  // Consumer side only: appends everything currently visible (ring, then
  // spill) to `out` in push order and empties the ring.
  // Precondition for reading the spill: the producer's round phase has
  // ended (the driver's barrier provides the happens-before edge).
  void DrainInto(std::vector<WireEntry>& out);

  bool EmptyUnsynchronized() const {
    return head_.load(std::memory_order_relaxed) ==
               tail_.load(std::memory_order_relaxed) &&
           spill_.empty();
  }

 private:
  std::vector<WireEntry> buf_;
  std::size_t mask_;
  // Cache-line separated cursors: tail_ is producer-written, head_ is
  // consumer-written; keeping them on distinct lines avoids ping-ponging
  // one line between the two workers every push/pop.
  alignas(64) std::atomic<std::size_t> tail_{0};  // next write slot
  alignas(64) std::atomic<std::size_t> head_{0};  // next read slot
  std::vector<WireEntry> spill_;  // producer-owned overflow
};

// K x K mesh of pair rings. Producer s pushes to (s, t) during its
// collect phase; consumer t drains column t during its receive phase.
class ShardExchange {
 public:
  explicit ShardExchange(std::uint32_t shards);

  void Push(std::uint32_t from, std::uint32_t to, const WireEntry& e) {
    rings_[from * shards_ + to].Push(e);
  }

  // Drains ring (from, to) into `out` (appending); producer order — i.e.
  // ascending (src, batch_pos, copy) within the round — is preserved.
  void DrainInto(std::uint32_t from, std::uint32_t to,
                 std::vector<WireEntry>& out) {
    rings_[from * shards_ + to].DrainInto(out);
  }

  std::uint32_t NumShards() const { return shards_; }

 private:
  std::uint32_t shards_;
  std::vector<SpscRing> rings_;
};

}  // namespace smst
