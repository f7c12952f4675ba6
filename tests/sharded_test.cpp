// Sharded simulator backend: partitioning, and the headline contract —
// results, metrics, and outcomes are bit-identical to the serial engine
// at every shard count, for both partition policies, both MST engines,
// with or without an adversary, and however many cross-shard messages
// one round sends through the per-destination outboxes.
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/lower_bounds/grc.h"
#include "smst/mst/api.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/simulator.h"
#include "smst/runtime/task.h"
#include "tests/run_identity.h"

namespace smst {
namespace {

using testing::ExpectIdenticalRuns;

// --------------------------------------------------------- partition ---

TEST(ShardPartitionTest, ClampsShardCountToNodeCount) {
  ShardPartition p(5, 64, ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(p.NumShards(), 5u);
  ShardPartition q(5, 0, ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(q.NumShards(), 1u);
  ShardPartition empty(0, 4, ShardPolicy::kRoundRobin);
  EXPECT_EQ(empty.NumShards(), 1u);
}

TEST(ShardPartitionTest, ContiguousBlocksAreBalancedAndOrdered) {
  // 10 nodes over 3 shards: sizes 4/3/3, ascending index ranges.
  ShardPartition p(10, 3, ShardPolicy::kContiguousBlocks);
  ASSERT_EQ(p.NumShards(), 3u);
  EXPECT_EQ(p.NodesOf(0), (std::vector<NodeIndex>{0, 1, 2, 3}));
  EXPECT_EQ(p.NodesOf(1), (std::vector<NodeIndex>{4, 5, 6}));
  EXPECT_EQ(p.NodesOf(2), (std::vector<NodeIndex>{7, 8, 9}));
}

TEST(ShardPartitionTest, RoundRobinOwnerIsIndexModuloShards) {
  ShardPartition p(10, 3, ShardPolicy::kRoundRobin);
  for (NodeIndex v = 0; v < 10; ++v) EXPECT_EQ(p.Owner(v), v % 3);
  EXPECT_EQ(p.NodesOf(0), (std::vector<NodeIndex>{0, 3, 6, 9}));
}

TEST(ShardPartitionTest, OwnerAndLocalIndexAgreeWithNodeLists) {
  for (ShardPolicy policy :
       {ShardPolicy::kContiguousBlocks, ShardPolicy::kRoundRobin}) {
    ShardPartition p(23, 4, policy);
    std::size_t covered = 0;
    for (std::uint32_t s = 0; s < p.NumShards(); ++s) {
      const auto& nodes = p.NodesOf(s);
      covered += nodes.size();
      for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(p.Owner(nodes[i]), s);
        EXPECT_EQ(p.LocalIndex(nodes[i]), i);
      }
    }
    EXPECT_EQ(covered, 23u);  // every node owned exactly once
  }
}

TEST(ShardPartitionTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(ParseShardPolicy("block"), ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(ParseShardPolicy("rr"), ShardPolicy::kRoundRobin);
  EXPECT_STREQ(ShardPolicyName(ShardPolicy::kContiguousBlocks), "block");
  EXPECT_STREQ(ShardPolicyName(ShardPolicy::kRoundRobin), "rr");
  EXPECT_THROW(ParseShardPolicy("zigzag"), std::invalid_argument);
}

// ------------------------------------------------------- bit-identity --

struct Topology {
  std::string name;
  WeightedGraph graph;
};

std::vector<Topology> Topologies() {
  std::vector<Topology> cases;
  {
    Xoshiro256 rng(51);
    cases.push_back({"ring-24", MakeRing(24, rng)});
  }
  {
    Xoshiro256 rng(52);
    cases.push_back({"star-16", MakeStar(16, rng)});
  }
  {
    Xoshiro256 rng(53);
    cases.push_back({"grc-4x8", BuildGrc(4, 8, rng).graph});
  }
  {
    Xoshiro256 rng(54);
    cases.push_back({"er-32", MakeErdosRenyi(32, 0.2, rng)});
  }
  return cases;
}

MstRunResult RunWith(const WeightedGraph& g, MstAlgorithm algo,
                     std::uint64_t seed, std::uint32_t shards,
                     ShardPolicy policy, const FaultPlan* plan) {
  MstOptions opt;
  opt.seed = seed;
  opt.shards = shards;
  opt.shard_policy = policy;
  opt.fault_plan = plan;
  opt.record_wake_times = true;
  opt.record_forest_snapshots = true;
  return ComputeMst(g, algo, opt);
}

TEST(ShardedIdentityTest, FaultFreeRunsMatchSerialAtEveryShardCount) {
  for (const Topology& c : Topologies()) {
    for (MstAlgorithm algo :
         {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
      for (std::uint64_t seed : {1, 5}) {
        const MstRunResult serial =
            RunWith(c.graph, algo, seed, 0, ShardPolicy::kContiguousBlocks,
                    nullptr);
        for (std::uint32_t shards : {1u, 2u, 4u}) {
          for (ShardPolicy policy :
               {ShardPolicy::kContiguousBlocks, ShardPolicy::kRoundRobin}) {
            SCOPED_TRACE(c.name + " " + MstAlgorithmName(algo) + " seed " +
                         std::to_string(seed) + " shards " +
                         std::to_string(shards) + " " +
                         ShardPolicyName(policy));
            ExpectIdenticalRuns(
                serial, RunWith(c.graph, algo, seed, shards, policy, nullptr));
          }
        }
      }
    }
  }
}

TEST(ShardedIdentityTest, FaultedRunsMatchSerialAtEveryShardCount) {
  // Mixed adversary: drops, delays (which cross the delayed-heap path),
  // duplicates, jitter, and crash-stop. The whole classified outcome —
  // including the per-category fault meters — must be shard-invariant.
  const FaultPlan plan =
      ParseFaultPlan("salt=9,drop=0.003,delay=2:0.02,dup=0.01,jitter=2:0.01");
  const FaultPlan crashy = ParseFaultPlan("salt=4,crash=40:0.05,drop=0.002");
  for (const Topology& c : Topologies()) {
    for (const FaultPlan* p : {&plan, &crashy}) {
      for (MstAlgorithm algo :
           {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
        const MstRunResult serial = RunWith(
            c.graph, algo, 3, 0, ShardPolicy::kContiguousBlocks, p);
        for (std::uint32_t shards : {2u, 4u}) {
          SCOPED_TRACE(c.name + " " + MstAlgorithmName(algo) + " plan " +
                       p->ToString() + " shards " + std::to_string(shards));
          ExpectIdenticalRuns(
              serial,
              RunWith(c.graph, algo, 3, shards,
                      ShardPolicy::kContiguousBlocks, p));
        }
      }
    }
  }
}

TEST(ShardedIdentityTest, OverProvisionedShardCountClamps) {
  // More shards than nodes: clamped, still identical.
  Xoshiro256 rng(61);
  const auto g = MakeRing(6, rng);
  const MstRunResult serial = RunWith(g, MstAlgorithm::kRandomized, 2, 0,
                                      ShardPolicy::kContiguousBlocks, nullptr);
  ExpectIdenticalRuns(serial,
                      RunWith(g, MstAlgorithm::kRandomized, 2, 64,
                              ShardPolicy::kRoundRobin, nullptr));
}

TEST(ShardedIdentityTest, RepeatRunAfterCallingThreadTeardownMatches) {
  // A sharded coroutine run carves each shard's frames on its worker and
  // releases them on this thread when the run returns (every frame goes
  // back to its own shard's pool). Nothing of that may leak into a
  // second identical run in the same process.
  Xoshiro256 rng(64);
  const auto g = MakeErdosRenyi(40, 0.15, rng);
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
    SCOPED_TRACE(MstAlgorithmName(algo));
    const MstRunResult first =
        RunWith(g, algo, 7, 3, ShardPolicy::kContiguousBlocks, nullptr);
    ExpectIdenticalRuns(
        first, RunWith(g, algo, 7, 3, ShardPolicy::kContiguousBlocks, nullptr));
  }
}

// (port, sender ID, send round) of every message a node received, in
// arrival order.
using ReceiveLog =
    std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>;

// All-awake chatter: every node sends on every port in rounds 1..3 and
// logs its inbox, except that every fifth leaf sleeps through round 2,
// so the hub's sends to it are model drops charged at the receiving
// shard.
Task<void> Chatter(NodeContext& ctx, ReceiveLog* log) {
  for (Round r = 1; r <= 3; ++r) {
    if (r == 2 && ctx.Index() != 0 && ctx.Index() % 5 == 0) continue;
    SendBatch sends;
    for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
      sends.push_back(OutMessage{p, Message{1, ctx.Id(), r, 0}});
    }
    const InboxBatch inbox = co_await ctx.Awake(r, std::move(sends));
    for (const InMessage& in : inbox) {
      log->emplace_back(in.port, in.msg.a, in.msg.b);
    }
  }
}

struct ChatterRun {
  MstRunResult result;  // metrics and outcome only; no tree
  std::vector<ReceiveLog> logs;
};

ChatterRun RunChatter(const WeightedGraph& g, std::uint32_t shards,
                      const FaultPlan* plan) {
  SimulatorOptions opt;
  opt.seed = 3;
  opt.shards = shards;
  opt.shard_policy = ShardPolicy::kRoundRobin;
  opt.fault_plan = plan;
  opt.audit = AuditMode::kOn;
  opt.record_wake_times = true;
  ChatterRun run;
  run.logs.resize(g.NumNodes());
  Simulator sim(g, opt);
  run.result.outcome = sim.RunToOutcome([&run](NodeContext& ctx) {
    return Chatter(ctx, &run.logs[ctx.Index()]);
  });
  run.result.stats = sim.Stats();
  run.result.node_metrics = sim.GetMetrics().PerNode();
  for (const NodeMetrics& m : run.result.node_metrics) {
    run.result.wake_times.push_back(m.wake_times);
  }
  return run;
}

TEST(ShardedIdentityTest, OverRingCapacityRoundMatchesSerial) {
  // A star's hub is node 0, so round-robin puts it on shard 0 and an
  // even share of the leaves on every other shard: with 7400 nodes each
  // round sends over 1024 entries (the capacity of the lock-free ring
  // this exchange used to be) through every (0, t) pair and back.
  Xoshiro256 rng(63);
  const auto g = MakeStar(7400, rng);
  const FaultPlan plan = ParseFaultPlan("salt=9,drop=0.01,delay=1:0.05,dup=0.05");
  for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
    const ChatterRun serial = RunChatter(g, 0, p);
    EXPECT_TRUE(serial.result.outcome.Ok());
    EXPECT_GT(serial.result.stats.dropped_messages, 0u);
    for (std::uint32_t shards : {3u, 7u}) {
      SCOPED_TRACE(std::string(p ? "faulted" : "clean") + " shards " +
                   std::to_string(shards));
      const ChatterRun sharded = RunChatter(g, shards, p);
      ExpectIdenticalRuns(serial.result, sharded.result);
      EXPECT_EQ(serial.logs, sharded.logs);
    }
  }
}

TEST(ShardedIdentityTest, TracingRequiresTheSerialEngine) {
  Xoshiro256 rng(62);
  const auto g = MakeRing(4, rng);
  SimulatorOptions opt;
  opt.shards = 2;
  opt.trace = [](const TraceEvent&) {};
  EXPECT_THROW(Simulator(g, opt), std::invalid_argument);
}

}  // namespace
}  // namespace smst
