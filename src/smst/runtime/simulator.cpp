#include "smst/runtime/simulator.h"

#include <stdexcept>
#include <string>

#include "smst/faults/auditor.h"
#include "smst/runtime/flat/engine.h"
#include "smst/runtime/sharded/engine.h"

namespace smst {

namespace {

bool WantAuditor(AuditMode mode) {
  switch (mode) {
    case AuditMode::kOn: return true;
    case AuditMode::kOff: return false;
    case AuditMode::kDefault:
#ifdef SMST_AUDIT_DEFAULT_ON
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kCoroutine: return "coroutine";
    case EngineMode::kFlat: return "flat";
  }
  return "?";
}

EngineMode ParseEngineMode(const std::string& name) {
  if (name == "coroutine") return EngineMode::kCoroutine;
  if (name == "flat") return EngineMode::kFlat;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (valid: coroutine, flat)");
}

Simulator::Simulator(const WeightedGraph& graph, SimulatorOptions options)
    : graph_(graph), options_(std::move(options)), metrics_(graph.NumNodes()) {
  if (options_.record_wake_times) metrics_.EnableWakeTimes();
  if (options_.shards > 0) {
    if (options_.trace) {
      // A sender's model-drop counts are only known receiver-side after
      // the collect barrier, so exact per-sender trace events cannot be
      // emitted shard-locally. Tracing is a debugging feature; use the
      // serial engine for it.
      throw std::invalid_argument(
          "tracing requires the serial engine (shards = 0)");
    }
    sharded_ = std::make_unique<ShardedEngine>(
        graph_, options_, WantAuditor(options_.audit), metrics_);
    return;
  }
  auditor_ = WantAuditor(options_.audit) ? std::make_unique<Auditor>(graph)
                                         : nullptr;
  core_ = std::make_unique<FlatEngine>(
      graph, metrics_,
      FlatEngine::Options{options_.max_rounds, options_.fault_plan,
                          options_.seed, auditor_.get(), options_.trace});
}

Simulator::~Simulator() = default;

const FaultStats& Simulator::InjectedFaults() const {
  return sharded_ ? sharded_->InjectedFaults() : core_->InjectedFaults();
}

void Simulator::Execute(const NodeProgram* coro, FlatProgram* flat) {
  if (ran_) throw std::logic_error("Simulator may run only once");
  ran_ = true;
  if (coro != nullptr && options_.engine != EngineMode::kCoroutine) {
    throw std::logic_error(
        "SimulatorOptions::engine is flat; drive the run with the "
        "FlatProgram overload");
  }
  if (flat != nullptr && options_.engine != EngineMode::kFlat) {
    throw std::logic_error(
        "SimulatorOptions::engine is coroutine; drive the run with the "
        "NodeProgram overload");
  }

  if (sharded_) {
    // The engine owns the per-shard cores and programs; it merges the
    // per-shard metrics into metrics_ before rethrowing shard-level
    // failures, so metrics_ is consistent on every exit path.
    sharded_->Execute(coro, flat);
    sharded_->RethrowFirstNodeFailure();
    return;
  }

  if (coro != nullptr) {
    coroutines_ = std::make_unique<CoroutineProgram>(graph_, *coro, metrics_,
                                                     options_.seed);
    flat = coroutines_.get();
  }
  core_->Run(*flat);
  // Rethrow failures before the never-finished check: a node that threw
  // (e.g. a bad wake request rejected at registration) is the root
  // cause, and peers it stranded mid-protocol must not mask it with the
  // generic error FinishRun raises.
  core_->RethrowFirstFailure();
}

std::uint64_t Simulator::CountUnfinished() const {
  return sharded_ ? sharded_->CountUnfinished() : core_->CountUnfinished();
}

NodeIndex Simulator::FirstUnfinishedNode() const {
  return sharded_ ? sharded_->FirstUnfinishedNode()
                  : core_->FirstUnfinishedNode();
}

void Simulator::AuditSummary::Add(Auditor& auditor, const Metrics& metrics) {
  auditor.CheckAwakeMeter(metrics);
  audited = true;
  awake_node_rounds += auditor.AwakeNodeRounds();
  model_drops += auditor.ModelDrops();
  violations += auditor.ViolationCount();
  report += auditor.Report();
}

void Simulator::AuditSummary::CopyTo(RunOutcome& out) const {
  if (!audited) return;
  out.audited_awake_node_rounds = awake_node_rounds;
  out.audited_model_drops = model_drops;
  out.audit_violations = violations;
}

void Simulator::CheckAudit() {
  if (sharded_) audit_ = sharded_->CheckAudit();
  else if (auditor_) audit_.Add(*auditor_, metrics_);
}

void Simulator::FinishRun() {
  const NodeIndex unfinished = FirstUnfinishedNode();
  if (unfinished != kInvalidNode) {
    throw std::runtime_error(
        "node " + std::to_string(unfinished) +
        " never finished (suspended with an empty wake queue)");
  }
  // Model conformance is part of the fault-free contract: a clean run
  // must also be a clean audit (builds with SMST_AUDIT make every
  // existing test a conformance test this way).
  CheckAudit();
  if (audit_.violations != 0) throw std::runtime_error(audit_.report);
}

void Simulator::Run(const NodeProgram& program) {
  Execute(&program, nullptr);
  FinishRun();
}

void Simulator::Run(FlatProgram& program) {
  Execute(nullptr, &program);
  FinishRun();
}

void Simulator::ClassifyFailure(RunOutcome& out) {
  try {
    throw;
  } catch (const NonTerminationError& e) {
    out.status = RunStatus::kNonTermination;
    out.detail = e.what();
  } catch (const ProtocolStallError& e) {
    out.status = RunStatus::kCrashedPartition;
    out.detail = e.what();
  } catch (const std::logic_error&) {
    throw;  // a programming bug, not a fault effect
  } catch (const std::exception& e) {
    // Any other failure a fault drove the algorithm into (defensive
    // checks on malformed protocol state) counts as a crashed run.
    out.status = RunStatus::kCrashedPartition;
    out.detail = e.what();
  }
}

RunOutcome Simulator::FinishOutcome(RunOutcome out) {
  const std::uint64_t unfinished = CountUnfinished();
  out.unfinished_nodes = unfinished;
  if (out.status == RunStatus::kCompleted && unfinished > 0) {
    out.status = RunStatus::kCrashedPartition;
    out.detail = std::to_string(unfinished) +
                 " node program(s) never finished (crash-stopped nodes "
                 "and the peers they stranded)";
  }
  out.last_round = metrics_.LastRound();
  out.faults = InjectedFaults();
  CheckAudit();
  audit_.CopyTo(out);
  return out;
}

RunOutcome Simulator::RunToOutcome(const NodeProgram& program) {
  RunOutcome out;
  try {
    Execute(&program, nullptr);
  } catch (...) {
    ClassifyFailure(out);
  }
  return FinishOutcome(out);
}

RunOutcome Simulator::RunToOutcome(FlatProgram& program) {
  RunOutcome out;
  try {
    Execute(nullptr, &program);
  } catch (...) {
    ClassifyFailure(out);
  }
  return FinishOutcome(out);
}

}  // namespace smst
