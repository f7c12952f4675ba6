// Flat execution engine (DESIGN §13): the batched state-machine lowering
// of the MST algorithms must be bit-identical to the coroutine engine in
// every observable — tree, aggregate and per-node metrics, telemetry,
// classified outcome, fault meters, and audit totals — fault-free and
// faulted, serial and sharded — and traced runs emit the same event
// stream. Plus the option-validation surface: engine parsing, overload
// mismatch, and the flat+log*-coloring rejection.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/lower_bounds/grc.h"
#include "smst/mst/api.h"
#include "smst/mst/detail.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/mst/randomized_mst.h"
#include "smst/runtime/simulator.h"
#include "tests/run_identity.h"

namespace smst {
namespace {

using testing::ExpectIdenticalRuns;

struct Topology {
  std::string name;
  WeightedGraph graph;
};

std::vector<Topology> Topologies() {
  std::vector<Topology> cases;
  {
    Xoshiro256 rng(71);
    cases.push_back({"ring-24", MakeRing(24, rng)});
  }
  {
    Xoshiro256 rng(72);
    cases.push_back({"star-16", MakeStar(16, rng)});
  }
  {
    Xoshiro256 rng(73);
    cases.push_back({"grc-4x8", BuildGrc(4, 8, rng).graph});
  }
  {
    Xoshiro256 rng(74);
    cases.push_back({"er-32", MakeErdosRenyi(32, 0.2, rng)});
  }
  return cases;
}

MstRunResult RunWith(const WeightedGraph& g, MstAlgorithm algo,
                     std::uint64_t seed, EngineMode engine,
                     std::uint32_t shards, const FaultPlan* plan,
                     AuditMode audit = AuditMode::kDefault) {
  MstOptions opt;
  opt.seed = seed;
  opt.engine = engine;
  opt.shards = shards;
  opt.fault_plan = plan;
  opt.audit = audit;
  opt.record_wake_times = true;
  opt.record_forest_snapshots = true;
  return ComputeMst(g, algo, opt);
}

// ----------------------------------------------------- bit-identity ---

TEST(FlatEngineIdentityTest, FaultFreeRunsMatchCoroutineSerialAndSharded) {
  for (const Topology& c : Topologies()) {
    for (MstAlgorithm algo :
         {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
      for (std::uint64_t seed : {1, 5}) {
        const MstRunResult coro = RunWith(c.graph, algo, seed,
                                          EngineMode::kCoroutine, 0, nullptr);
        for (std::uint32_t shards : {0u, 2u}) {
          SCOPED_TRACE(c.name + " " + MstAlgorithmName(algo) + " seed " +
                       std::to_string(seed) + " shards " +
                       std::to_string(shards));
          ExpectIdenticalRuns(coro, RunWith(c.graph, algo, seed,
                                            EngineMode::kFlat, shards,
                                            nullptr));
        }
      }
    }
  }
}

TEST(FlatEngineIdentityTest, FaultedRunsMatchCoroutineSerialAndSharded) {
  // Mixed adversary (drops, delays, duplicates, jitter) and a crash-stop
  // plan: the whole classified outcome including the per-category fault
  // meters must be engine-invariant.
  const FaultPlan plan =
      ParseFaultPlan("salt=9,drop=0.003,delay=2:0.02,dup=0.01,jitter=2:0.01");
  const FaultPlan crashy = ParseFaultPlan("salt=4,crash=40:0.05,drop=0.002");
  for (const Topology& c : Topologies()) {
    for (const FaultPlan* p : {&plan, &crashy}) {
      for (MstAlgorithm algo :
           {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
        const MstRunResult coro =
            RunWith(c.graph, algo, 3, EngineMode::kCoroutine, 0, p);
        for (std::uint32_t shards : {0u, 2u}) {
          SCOPED_TRACE(c.name + " " + MstAlgorithmName(algo) + " plan " +
                       p->ToString() + " shards " + std::to_string(shards));
          ExpectIdenticalRuns(
              coro, RunWith(c.graph, algo, 3, EngineMode::kFlat, shards, p));
        }
      }
    }
  }
}

TEST(FlatEngineIdentityTest, AuditedRunsMatchIncludingAuditTotals) {
  // AuditMode::kOn takes the round core's observed delivery path (the
  // auditor sees the identical event stream); the audit meters
  // themselves must match the coroutine run's.
  Xoshiro256 rng(75);
  const auto g = MakeErdosRenyi(24, 0.25, rng);
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
    SCOPED_TRACE(MstAlgorithmName(algo));
    const MstRunResult coro = RunWith(g, algo, 2, EngineMode::kCoroutine, 0,
                                      nullptr, AuditMode::kOn);
    const MstRunResult flat = RunWith(g, algo, 2, EngineMode::kFlat, 0,
                                      nullptr, AuditMode::kOn);
    ExpectIdenticalRuns(coro, flat);
    EXPECT_GT(flat.outcome.audited_awake_node_rounds, 0u);
  }
}

TEST(FlatEngineIdentityTest, AdaptiveBlocksAndBaselinesMatchToo) {
  // The remaining harness surfaces: adaptive blocks (randomized),
  // paper-mode termination, and the two derived algorithms that reuse
  // the randomized engine.
  Xoshiro256 rng(76);
  const auto g = MakeErdosRenyi(20, 0.3, rng);
  for (MstAlgorithm algo :
       {MstAlgorithm::kGhsBaseline, MstAlgorithm::kBmSpanningTree}) {
    SCOPED_TRACE(MstAlgorithmName(algo));
    EXPECT_TRUE(SupportsFlatEngine(algo, MstOptions{}));
    ExpectIdenticalRuns(RunWith(g, algo, 7, EngineMode::kCoroutine, 0, nullptr),
                        RunWith(g, algo, 7, EngineMode::kFlat, 0, nullptr));
  }
  MstOptions opt;
  opt.seed = 7;
  opt.adaptive_blocks = true;
  MstOptions flat_opt = opt;
  flat_opt.engine = EngineMode::kFlat;
  ExpectIdenticalRuns(RunRandomizedMst(g, opt), RunRandomizedMst(g, flat_opt));
  opt.adaptive_blocks = false;
  opt.termination = TerminationMode::kPaperPhaseCount;
  flat_opt = opt;
  flat_opt.engine = EngineMode::kFlat;
  ExpectIdenticalRuns(RunRandomizedMst(g, opt), RunRandomizedMst(g, flat_opt));
}

// ------------------------------------------------ option validation ---

TEST(FlatEngineOptionsTest, EngineNamesRoundTrip) {
  EXPECT_EQ(ParseEngineMode("coroutine"), EngineMode::kCoroutine);
  EXPECT_EQ(ParseEngineMode("flat"), EngineMode::kFlat);
  EXPECT_STREQ(EngineModeName(EngineMode::kCoroutine), "coroutine");
  EXPECT_STREQ(EngineModeName(EngineMode::kFlat), "flat");
  EXPECT_THROW(ParseEngineMode("warp"), std::invalid_argument);
}

TEST(FlatEngineIdentityTest, TraceStreamsMatchCoroutineSerial) {
  // One round core runs both forms, so a traced flat run emits the
  // coroutine run's TraceEvent stream event for event — clean, and with
  // the adversary's drops, delays and duplicates in the injected_*
  // fields.
  Xoshiro256 rng(77);
  const auto g = MakeErdosRenyi(40, 0.15, rng);
  const FaultPlan plan =
      ParseFaultPlan("salt=9,drop=0.001,delay=2:0.01,dup=0.01");
  for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
    std::vector<TraceEvent> streams[2];
    for (int form = 0; form < 2; ++form) {
      MstOptions opt;
      opt.seed = 3;
      opt.fault_plan = p;
      opt.engine = form == 0 ? EngineMode::kCoroutine : EngineMode::kFlat;
      std::vector<TraceEvent>& events = streams[form];
      detail::RunGhsStyle(
          g, opt, detail::SelectionRule::kMinWeight,
          [&events](const TraceEvent& e) { events.push_back(e); });
    }
    SCOPED_TRACE(p != nullptr ? p->ToString() : "clean");
    ASSERT_FALSE(streams[0].empty());
    ASSERT_EQ(streams[0].size(), streams[1].size());
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      const TraceEvent& a = streams[0][i];
      const TraceEvent& b = streams[1][i];
      ASSERT_TRUE(a.round == b.round && a.node == b.node &&
                  a.sent == b.sent && a.received == b.received &&
                  a.dropped == b.dropped &&
                  a.injected_drops == b.injected_drops &&
                  a.injected_delays == b.injected_delays &&
                  a.injected_dups == b.injected_dups)
          << "event " << i << " (round " << a.round << ", node " << a.node
          << ")";
    }
  }
}

struct NoopFlatProgram final : FlatProgram {
  Round Start(NodeIndex, FlatEnv&, SendBatch&) override { return kFlatDone; }
  Round Step(NodeIndex, Round, FlatEnv&, const InboxBatch&,
             SendBatch&) override {
    return kFlatDone;
  }
};

TEST(FlatEngineOptionsTest, EngineAndOverloadMustAgree) {
  Xoshiro256 rng(78);
  const auto g = MakeRing(4, rng);
  {
    SimulatorOptions opt;
    opt.engine = EngineMode::kFlat;
    Simulator sim(g, opt);
    EXPECT_THROW(
        sim.Run([](NodeContext&) -> Task<void> { co_return; }),
        std::logic_error);
  }
  {
    Simulator sim(g, SimulatorOptions{});
    NoopFlatProgram program;
    EXPECT_THROW(sim.Run(program), std::logic_error);
  }
}

TEST(FlatEngineOptionsTest, LogStarColoringRejectsTheFlatEngine) {
  Xoshiro256 rng(79);
  const auto g = MakeRing(6, rng);
  MstOptions opt;
  opt.engine = EngineMode::kFlat;
  EXPECT_FALSE(SupportsFlatEngine(MstAlgorithm::kDeterministicLogStar, opt));
  EXPECT_THROW(ComputeMst(g, MstAlgorithm::kDeterministicLogStar, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace smst
