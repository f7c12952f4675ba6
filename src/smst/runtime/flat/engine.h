// The round core: the one round loop every engine form runs on.
//
// Node programs are FlatPrograms; coroutine node programs run as one
// more FlatProgram form (CoroutineProgram, runtime/coroutine_program.h).
// The core keeps struct-of-arrays node state — per-node send/inbox
// slots, a status lane, a dense meter lane, an awake stamp — and the
// bucketed round queue (DESIGN.md §7), and runs each round in the
// canonical ascending-node order of §4:
//
//   stage    pop the round's nodes, ascending, and mark them awake
//   drain    deliver or expire the adversary-delayed messages due now
//   deliver  every staged sender's batch, ascending sender, batch order
//   step     every staged node with its complete inbox, ascending
//
// The fault session (§10), the delayed-message heap, the auditor hooks
// and the trace sink are branches on this loop. With none installed a
// per-sender check picks the plain delivery body, and all-awake rounds
// fuse delivery and step into one sweep (§13).
//
// The serial engine is one core over every node (Run). The sharded
// engine runs one core per shard and drives the phases itself
// (runtime/sharded/engine.h); its cores share one FlatSlots, each
// touching only its own nodes' entries.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "smst/faults/fault_plan.h"
#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/message.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/trace.h"

namespace smst {

class Auditor;

// Per-run state the cores of one run share: the CSR reverse-port table
// and the per-node mail slots (sends[v] is the batch node v queued for
// its next awake round; inbox[v] what the current round delivered to
// it). A send slot plus an inbox slot is ~370 B per node, so a sharded
// run keeps one n-sized pair, not one per shard.
struct FlatSlots {
  explicit FlatSlots(const WeightedGraph& graph);

  // reverse_ports[port_offset[v] + p] is the port index *at the
  // neighbor* for node v's port p: delivery resolves the receiver's port
  // with one load.
  const std::uint32_t* ReversePorts(NodeIndex v) const {
    return reverse_ports.data() + port_offset[v];
  }

  std::vector<std::size_t> port_offset;  // size n+1
  std::vector<std::uint32_t> reverse_ports;
  std::vector<SendBatch> sends;
  std::vector<InboxBatch> inbox;
};

class FlatEngine {
 public:
  struct Options {
    // Watchdog: NonTerminationError once the round clock passes this.
    Round max_rounds = std::uint64_t{1} << 62;
    // Borrowed; null or empty = fault-free. The adversary stream is
    // derived from plan->salt ^ run_seed.
    const FaultPlan* fault_plan = nullptr;
    std::uint64_t run_seed = 0;
    // Borrowed runtime invariant auditor (observation only); may be null.
    Auditor* auditor = nullptr;
    TraceSink trace;  // serial cores only
  };

  // A core over every node of `graph` owning its slots, or — given a
  // partition — over the nodes of `shard`, using the run's shared slots.
  FlatEngine(const WeightedGraph& graph, Metrics& metrics, Options options,
             const ShardPartition* partition = nullptr,
             std::uint32_t shard = 0, FlatSlots* shared = nullptr);

  // The serial engine: starts every node, runs rounds until none is
  // pending, then expires still-parked delayed messages. Throws
  // NonTerminationError when the watchdog trips; program failures are
  // captured per node (RethrowFirstFailure).
  void Run(FlatProgram& program);

  // --- the round phases, for the sharded engine's BSP loop -----------
  // Start pass: every owned node to its first wake, ascending — the
  // flat twin of constructing all tasks, then starting them.
  void StartAll(FlatProgram& program);
  // Earliest round with a queued wake (kMaxRound if none). Delayed
  // messages never create rounds.
  Round NextPendingRound() const;
  // Throws the watchdog's NonTerminationError if `r` is past the limit.
  void CheckWatchdog(Round r) const;
  // Advances the clock to `r`, splices its wakes into Staged() in
  // ascending node order and marks them awake. Staging no node (a shard
  // with nothing due in a global round) is legal. Returns true iff the
  // round is all-awake with nothing observing it (the fused sweep's
  // case; serial cores only, and then nothing is marked).
  bool StageRound(Round r);
  const std::vector<NodeIndex>& Staged() const { return staged_; }
  // Delivers (awake receiver) or expires the parked messages due by `r`.
  void DrainDelayed(Round r);
  // One staged sender's round: its awake meter, and metering, verdict,
  // parking, drop accounting and delivery for each of its sends to a
  // node this core owns. `wi` is v's position in Staged().
  void DeliverFrom(NodeIndex v, std::size_t wi);
  // Meters one send of staged sender v and draws the adversary's
  // verdict for it (none when fault-free). An injected drop is fully
  // accounted here; the caller routes everything else.
  FaultSession::MessageVerdict Judge(NodeIndex v, const OutMessage& out,
                                     std::size_t wi);
  // A message from another shard's node to one of ours: parked if
  // delayed, else delivered or charged as a model drop (at this core).
  void Receive(const WireEntry& e);
  // Steps every staged node with its inbox and queues its next wake.
  void StepStaged(FlatProgram& program);
  // Adds the dense meter lane into the Metrics records and resets it;
  // a second call is a no-op.
  void FoldMetrics();

  Round CurrentRound() const { return current_; }
  const FaultStats& InjectedFaults() const { return faults_.Stats(); }

  // Node status, over owned nodes. A failed node counts as done; a node
  // whose wake a crash swallowed never finishes.
  bool Done(NodeIndex v) const { return status_[v] != Status::kRunning; }
  void RethrowIfFailed(NodeIndex v) const;
  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;  // kInvalidNode if none
  void RethrowFirstFailure() const;

 private:
  enum class Status : std::uint8_t { kRunning, kDone, kFailed };

  // Per-waker trace scratch for one round (allocated only when tracing).
  struct TraceCounts {
    std::uint32_t dropped = 0;         // model drops (receiver asleep)
    std::uint32_t injected_drops = 0;  // adversary-destroyed sends
    std::uint32_t injected_delays = 0;
    std::uint32_t injected_dups = 0;
  };

  // The registration rules for node v's requested wake `r`: kFlatDone
  // finishes the node; under a fault plan the round may be jittered or
  // the wake swallowed by a crash; otherwise it must be strictly after
  // the clock; and the send batch must be legal. Returns the round to
  // queue (0 = none). Throws on a bad round or send batch (the caller
  // marks the node failed).
  Round Admit(NodeIndex v, Round r);
  // Admit, then queue the wake.
  void Register(NodeIndex v, Round r);
  void ValidateSends(NodeIndex v, const SendBatch& sends);
  void PushRegistered(NodeIndex v, Round r);
  void Fail(NodeIndex v);
  // The fault-free, unobserved, serial delivery body of DeliverFrom.
  void DeliverPlain(NodeIndex v);
  void Land(NodeIndex src, NodeIndex dst, std::uint32_t port,
            const Message& msg);
  void Park(const WireEntry& m);
  // One all-awake round as a single fused sweep: node v steps as soon
  // as the ascending delivery cursor passes thresh_[v] (its inbox is then
  // complete and its send slot drained), instead of in a second pass.
  void FusedRound(FlatProgram& program);
  void BuildFusedOrder();
  TraceCounts* TraceOf(std::size_t wi) {
    return trace_ ? &round_trace_[wi] : nullptr;
  }

  const WeightedGraph& graph_;
  Metrics& metrics_;
  Round max_rounds_;
  Round current_ = 0;
  FaultSession faults_;
  const bool faulty_;
  Auditor* auditor_;
  TraceSink trace_;
  // Sharded cores: the node partition and this core's shard. Null for a
  // serial core, which owns every node.
  const ShardPartition* partition_;
  std::uint32_t shard_;
  // Nothing observes deliveries one by one: no faults, no auditor, no
  // trace, no shards. Picks the plain and fused bodies.
  const bool plain_;
  const bool wake_times_;
  std::vector<NodeIndex> nodes_;  // owned, ascending
  FlatEnv env_;

  std::unique_ptr<FlatSlots> own_slots_;  // serial cores
  FlatSlots& slots_;

  // Node lanes, indexed by node. stamp_[v] == r iff v is awake in the
  // round r being delivered (rounds are >= 1, so 0 means never).
  std::vector<Status> status_;
  std::vector<std::exception_ptr> errors_;
  std::vector<Round> stamp_;
  // Dense meter records (32-byte stride) for the per-round accounting,
  // folded into the 64-byte NodeMetrics records by FoldMetrics. Wake
  // times and model drops charged to another shard's sender go to
  // NodeMetrics directly.
  struct MeterAcc {
    std::uint64_t awake = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bits = 0;
    std::uint64_t drops = 0;
  };
  std::vector<MeterAcc> acc_;
  std::uint64_t max_bits_seen_ = 0;

  // Round queue (§7): a min-heap of (round, seq, bucket) over reusable
  // NodeIndex buckets. The dominant pattern — every staged node
  // re-registering for one next round, ascending — appends to the open
  // bucket, so staging is usually one bucket copy with the sort skipped.
  struct QueueEntry {
    Round round;
    std::uint64_t seq;
    std::uint32_t bucket;
    bool operator>(const QueueEntry& o) const {
      return round != o.round ? round > o.round : seq > o.seq;
    }
  };
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
  std::vector<QueueEntry> heap_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::vector<NodeIndex>> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  Round open_round_ = 0;
  std::uint32_t open_bucket_ = kNoBucket;
  std::vector<NodeIndex> staged_;
  std::vector<TraceCounts> round_trace_;
  std::vector<std::uint64_t> seen_ports_scratch_;
  // Adversary-delayed messages, a min-heap on (due, canonical identity);
  // empty for a null plan.
  std::vector<WireEntry> delayed_;

  // Fused-sweep order (built on the first all-awake round):
  // thresh_[v] = max(v, max neighbor of v); step_order_ lists nodes by
  // ascending threshold (ties ascending); next_round_[v] holds the
  // validated wake a fused step requested (0 = none), queued by an
  // ascending pass at the end of the round.
  std::vector<NodeIndex> thresh_;
  std::vector<NodeIndex> step_order_;
  std::vector<Round> next_round_;
  bool fused_ready_ = false;
};

}  // namespace smst
