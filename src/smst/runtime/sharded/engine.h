// Sharded multi-worker backend for the sleeping-model simulator.
//
// The node set is partitioned into K shards; each shard worker thread
// owns one round core (runtime/flat/engine.h: wake queue, delayed-message
// parking, fault session, optional auditor) over its nodes, plus — for
// coroutine runs — the CoroutineProgram holding its nodes' frames, its
// own metrics, and one outbox per destination shard. The cores share one
// set of per-node mail slots, each touching only its own nodes' entries.
// A round proceeds in barrier-separated phases:
//
//   select   every shard publishes NextPendingRound(); the barrier's
//            completion reduces them to the global round R = min
//   stage    each core stages its round-R nodes (canonical ascending
//            node order) and marks them awake
//   collect  each shard meters its nodes' *cross-shard* sends and
//            appends them (fault verdicts applied sender-side) to its
//            outbox for the owner shard, in ascending source order;
//            shard-local sends wait for the delivery scan
//   barrier
//   receive  each core drains its delayed heap for round R, then one
//            scan steps its local senders and the other shards' outboxes
//            addressed to it, read in place, in ascending source order —
//            local senders through the core's per-sender delivery (the
//            serial body), remote entries to awake targets (charging
//            model drops receiver-side)
//   step     each core steps its staged nodes in ascending node order
//
// An outbox is written only by its owner before the collect barrier and
// read only by its destination between that barrier and the next select
// barrier, so the barriers are its only synchronization.
//
// Teardown: the engine's destructor, on the thread that ran Execute,
// destroys the shards after the workers are joined. A shard's
// CoroutineProgram owns the frame pool its frames were carved from
// (runtime/frame_pool.h), and every frame names its pool, so the frames
// go back to it and its slabs are freed with it; no worker thread is
// needed to release them.
//
// Determinism: round staging order is canonical, fault verdicts are pure
// hashes of event coordinates, per-shard metrics/fault counters merge by
// commutative sums (maxima for round/bit peaks) in fixed shard order,
// and the delayed heap orders by the canonical message key — so a run's
// results, metrics, and outcome are bit-identical to the serial engine
// for every shard count. DESIGN.md §12 gives the full argument.
//
// Not supported here: TraceSink (per-sender drop counts are only known
// receiver-side after the barrier; the Simulator rejects trace + shards).
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/coroutine_program.h"
#include "smst/runtime/flat/engine.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/simulator.h"

namespace smst {

class Auditor;

class ShardedEngine {
 public:
  // The sharded backend of one Simulator run: options.shards workers
  // under options.shard_policy, one Auditor per shard when `audit` is
  // set. Execute merges the shards' meters into `metrics`, the run's.
  ShardedEngine(const WeightedGraph& graph, const SimulatorOptions& options,
                bool audit, Metrics& metrics);
  ~ShardedEngine();

  // Runs every node program to completion (or abort); exactly one of the
  // programs is non-null. A flat program instance is shared across the
  // workers — safe because shards own disjoint node sets and flat
  // programs keep all mutable state in per-node slots
  // (runtime/flat/program.h). Per-shard metrics and fault counters are
  // merged (in shard order) into the run before shard-level failures
  // (round watchdog, allocation failure) rethrow, lowest shard index
  // first; node-program failures are captured per node for
  // RethrowFirstNodeFailure.
  void Execute(const NodeProgram* coro, FlatProgram* flat);

  // --- post-run views (valid after Execute, even if it threw) ----------
  const FaultStats& InjectedFaults() const { return merged_faults_; }
  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;  // kInvalidNode if all finished
  // Rethrows the first failed node program in global node-index order.
  void RethrowFirstNodeFailure() const;
  // Cross-checks each shard auditor against its own metrics (per-shard
  // books balance: awakes are metered at the owner, model drops at the
  // receiver) and returns their summed meters.
  Simulator::AuditSummary CheckAudit();

 private:
  struct Shard {
    Shard(const WeightedGraph& graph, const SimulatorOptions& options,
          bool audit, const ShardPartition& partition, std::uint32_t s,
          FlatSlots& slots);

    Metrics metrics;                   // full-size; merged by summation
    std::unique_ptr<Auditor> auditor;  // before core: it borrows it
    FlatEngine core;
    // Coroutine runs only: this shard's nodes' frames and their pool.
    std::unique_ptr<CoroutineProgram> coroutines;
    // outbox[t]: this round's surviving sends to shard t's nodes, in
    // ascending (src, batch_pos, copy) order. Reused every round.
    std::vector<std::vector<WireEntry>> outbox;
    // Receive-side merge cursors over the outboxes addressed to this
    // shard, one per source shard, rebuilt every round.
    struct Stream {
      const WireEntry* next = nullptr;
      const WireEntry* end = nullptr;
    };
    std::vector<Stream> streams;
    // cross_ports[v] != 0 iff local node v has at least one neighbor
    // owned by another shard. CollectSends skips a waker's whole batch
    // on this bit, so the pre-barrier sweep touches only boundary
    // nodes — on a block-partitioned ring that is ~2 nodes per shard
    // instead of all of them. Indexed by global node; only local
    // entries are ever written or read.
    std::vector<std::uint8_t> cross_ports;
  };

  void ShardMain(std::uint32_t s, const NodeProgram* coro, FlatProgram* flat);
  void RunShard(std::uint32_t s, const NodeProgram* coro, FlatProgram* flat);
  void CollectSends(std::uint32_t s);
  void ReceiveAndDeliver(std::uint32_t s);

  // Barrier completion: reduce the published per-shard next rounds to
  // the global round. Runs exactly once per barrier phase, on the last
  // arriving thread; the barrier sequences it against all shard reads.
  struct RoundReduce {
    ShardedEngine* engine;
    void operator()() noexcept {
      Round m = kMaxRound;
      for (Round r : engine->next_round_) m = std::min(m, r);
      engine->global_round_ = m;
    }
  };

  const WeightedGraph& graph_;
  const SimulatorOptions& options_;
  const bool audit_;
  Metrics& metrics_;  // the run's; receives the merged shard meters
  ShardPartition partition_;
  FlatSlots slots_;  // shared by the shard cores
  // Slot s is constructed by worker s itself (ShardMain), not in the
  // engine constructor: the O(n)-sized Metrics and core lanes are then
  // built in parallel and first-touched by their owner thread.
  // Null after Execute only if that shard failed before constructing;
  // its exception is in errors_[s]. The join in Execute orders every
  // slot's write before the main thread's reads.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::exception_ptr> errors_;  // shard-level failures

  std::vector<Round> next_round_;  // written by shard s before barrier
  Round global_round_ = 0;         // written by the barrier completion
  std::optional<std::barrier<RoundReduce>> barrier_;
  std::atomic<bool> abort_{false};

  FaultStats merged_faults_;
};

}  // namespace smst
