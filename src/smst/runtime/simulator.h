// Simulator: drives one node program per node to completion and collects
// the run's metrics. Deterministic under a fixed seed — including under a
// fault plan, whose adversary stream is derived from (plan salt ^ seed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "smst/faults/fault_plan.h"
#include "smst/faults/run_outcome.h"
#include "smst/graph/graph.h"
#include "smst/runtime/coroutine_program.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/node.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/task.h"
#include "smst/runtime/trace.h"

namespace smst {

class Auditor;
class ShardedEngine;
class FlatEngine;

// Which form the node programs take. kCoroutine runs one coroutine per
// node (the NodeProgram overloads); kFlat a batched FlatProgram state
// machine (the FlatProgram overloads). Both run on the same round core
// with bit-identical results (DESIGN.md §13). The option must match the
// overload used — the mismatch is a logic_error.
enum class EngineMode : std::uint8_t { kCoroutine, kFlat };

const char* EngineModeName(EngineMode mode);
// Parses "coroutine" / "flat" (the CLI/harness --engine values); throws
// std::invalid_argument naming the valid values on anything else.
EngineMode ParseEngineMode(const std::string& name);

// Whether this run gets a runtime invariant auditor (see faults/auditor.h).
// kDefault = on in builds configured with SMST_AUDIT (all Debug builds),
// off otherwise; kOn/kOff force it.
enum class AuditMode : std::uint8_t { kDefault, kOn, kOff };

struct SimulatorOptions {
  std::uint64_t seed = 1;
  // Watchdog: abort if the round clock passes this (runaway algorithms).
  Round max_rounds = std::uint64_t{1} << 62;
  // Record every node's awake round numbers (lower-bound experiments).
  bool record_wake_times = false;
  // Optional per-(node, awake round) event sink; see runtime/trace.h.
  TraceSink trace;
  // Borrowed fault plan (null or empty = fault-free run); consulted by
  // the round core at delivery and wake-registration time.
  const FaultPlan* fault_plan = nullptr;
  AuditMode audit = AuditMode::kDefault;
  // Sharded multi-worker backend: 0 = serial engine (default); K >= 1
  // partitions the nodes over K worker threads (clamped to n), each with
  // its own round core, exchanging message batches at round barriers.
  // Results, metrics, and outcomes are bit-identical to the serial
  // engine for every K (DESIGN.md §12). `trace` is serial-only.
  std::uint32_t shards = 0;
  ShardPolicy shard_policy = ShardPolicy::kContiguousBlocks;
  // Program form; kFlat requires driving the run with the FlatProgram
  // overloads of Run/RunToOutcome.
  EngineMode engine = EngineMode::kCoroutine;
};

class Simulator {
 public:
  Simulator(const WeightedGraph& graph, SimulatorOptions options = {});
  ~Simulator();

  // Starts `program` on every node and runs rounds until all programs
  // finish. Rethrows the first node failure, throws if any node never
  // finished, and (when an auditor is installed) throws on any audit
  // violation — the historical all-or-nothing contract for fault-free
  // runs. May be called once per Simulator.
  void Run(const NodeProgram& program);

  // Bounded-run variant for faulted executions: instead of throwing,
  // classifies what happened into a RunOutcome (completed /
  // non-termination / crashed-partition; callers that can verify the
  // result refine kCompleted into kWrongResult). std::logic_error —
  // programming bugs, not fault effects — still propagates. May be called
  // once per Simulator, instead of Run.
  RunOutcome RunToOutcome(const NodeProgram& program);

  // Flat-engine twins of Run/RunToOutcome (SimulatorOptions::engine must
  // be kFlat). The caller owns `program` (one instance holds every
  // node's state); results are bit-identical to running the coroutine
  // form of the same algorithm.
  void Run(FlatProgram& program);
  RunOutcome RunToOutcome(FlatProgram& program);

  const Metrics& GetMetrics() const { return metrics_; }
  RunStats Stats() const { return metrics_.Summarize(); }
  // Null unless this run has a serial-engine auditor installed (sharded
  // runs audit per shard; use Audit() for the engine-independent view).
  const Auditor* GetAuditor() const { return auditor_.get(); }
  const FaultStats& InjectedFaults() const;

  // Engine-independent auditor summary: the serial auditor's meters, or
  // the shard auditors' summed meters (audited == false when no auditor
  // ran). Valid after Run returned, or after RunToOutcome.
  struct AuditSummary {
    bool audited = false;
    std::uint64_t awake_node_rounds = 0;
    std::uint64_t model_drops = 0;
    std::uint64_t violations = 0;
    std::string report;  // "" when clean
    // Runs `auditor`'s awake-meter cross-check against the metrics it
    // observed, then adds its meters and report to this summary.
    void Add(Auditor& auditor, const Metrics& metrics);
    // Copies the meters into `out`'s audit fields (untouched unless
    // audited).
    void CopyTo(RunOutcome& out) const;
  };
  const AuditSummary& Audit() const { return audit_; }

 private:
  // Shared body of every Run/RunToOutcome overload (exactly one program
  // is non-null): a coroutine program is wrapped in a CoroutineProgram,
  // then the serial core or the sharded engine runs the run, and the
  // first failed node program is rethrown.
  void Execute(const NodeProgram* coro, FlatProgram* flat);
  void FinishRun();
  RunOutcome FinishOutcome(RunOutcome out);
  // Classifies the in-flight exception into `out` (rethrows logic_error).
  static void ClassifyFailure(RunOutcome& out);
  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;
  // Fills audit_ from the serial or the shard auditors (run once).
  void CheckAudit();

  const WeightedGraph& graph_;
  SimulatorOptions options_;
  Metrics metrics_;
  std::unique_ptr<Auditor> auditor_;  // before core_: it borrows it
  // Exactly one engine exists per Simulator: the serial round core, or
  // the sharded multi-worker backend when options.shards >= 1.
  std::unique_ptr<FlatEngine> core_;
  std::unique_ptr<ShardedEngine> sharded_;
  // Serial coroutine runs: every node's frame.
  std::unique_ptr<CoroutineProgram> coroutines_;
  AuditSummary audit_;  // filled by CheckAudit
  bool ran_ = false;
};

}  // namespace smst
