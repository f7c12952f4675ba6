// Structured classification of a (possibly faulted) run.
//
// Fault-free runs keep the historical contract: Simulator::Run and the
// algorithm harnesses throw on any failure. Under a FaultPlan the
// interesting result *is* the failure mode, so the runtime classifies it
// into a RunOutcome instead of hanging or surfacing an opaque exception:
//
//   kCompleted         every node program finished
//   kWrongResult       finished, but the output is not the MST (endpoint
//                      disagreement, missing edges, or a failed exact
//                      verification by the caller)
//   kNonTermination    a bounded-run guard fired: the engine's round
//                      watchdog or an algorithm's phase cap
//                      (NonTerminationError)
//   kCrashedPartition  the run stalled short of completion: crash-stopped
//                      nodes left peers suspended forever, or message
//                      loss starved a protocol step that cannot proceed
//                      (ProtocolStallError)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "smst/faults/fault_plan.h"

namespace smst {

// Thrown by bounded-run guards: the engine's round watchdog and the
// algorithms' phase caps. Derives from std::runtime_error so existing
// callers that expect the old type keep working.
class NonTerminationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by protocol steps that cannot proceed because an expected
// message never arrived (a parent silent in its Down-Receive round, a
// merge target silent in the Side round, ...). Fault-free executions
// never throw it — the implementations are drop-free by construction —
// so under a FaultPlan it identifies a fault-induced stall.
class ProtocolStallError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RunStatus : std::uint8_t {
  kCompleted,
  kWrongResult,
  kNonTermination,
  kCrashedPartition,
};

const char* RunStatusName(RunStatus s);

struct RunOutcome {
  RunStatus status = RunStatus::kCompleted;
  // Human-readable cause (exception message, verification error, ...).
  std::string detail;
  // Last round any node was awake when the run ended or was aborted.
  Round last_round = 0;
  // Node programs that never finished (crash-stopped nodes and the peers
  // they stranded mid-protocol).
  std::uint64_t unfinished_nodes = 0;
  // What the adversary injected (all zero for a null plan).
  FaultStats faults;
  // Runtime-auditor summary, filled when an auditor observed the run:
  // its independently-metered awake node-rounds and model drops (cross-
  // checked against the engine's Metrics) and any violations found.
  std::uint64_t audited_awake_node_rounds = 0;
  std::uint64_t audited_model_drops = 0;
  std::uint64_t audit_violations = 0;

  bool Ok() const { return status == RunStatus::kCompleted; }

  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

inline const char* RunStatusName(RunStatus s) {
  switch (s) {
    case RunStatus::kCompleted: return "completed";
    case RunStatus::kWrongResult: return "wrong-result";
    case RunStatus::kNonTermination: return "non-termination";
    case RunStatus::kCrashedPartition: return "crashed-partition";
  }
  return "?";
}

}  // namespace smst
