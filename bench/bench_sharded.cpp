// Sharded-engine throughput (google-benchmark): the serial engine
// versus the K-shard backend on identical work, at node counts past 10^6.
//
// The workload is the round engine's worst case — every node awake and
// sending on every port every round — so the numbers measure engine
// throughput (spawn + rounds + delivery + teardown), not any algorithm's
// sleeping pattern. Results are bit-identical across engines (pinned by
// tests/sharded_test.cpp); this bench records what that costs or buys in
// wall-clock. Committed curve: bench/baselines/BENCH_sharded.json.
//
// Topology spread:
//  * ring  — degree 2, block partition keeps all but 2K edges internal:
//            the sharding-friendly extreme.
//  * star  — one hub owning n-1 ports: serial hot spot, and under
//            round-robin almost every edge crosses shards: the cross-
//            shard outbox stress extreme.
//  * grc   — the paper's lower-bound family (4 x c grid-with-tree): a
//            realistic mixed topology.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "smst/graph/generators.h"
#include "smst/lower_bounds/grc.h"
#include "smst/runtime/simulator.h"

namespace {

using namespace smst;

constexpr int kRounds = 4;

Task<void> ChatterNode(NodeContext& ctx) {
  for (int r = 1; r <= kRounds; ++r) {
    SendBatch sends;
    for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
      sends.push_back({p, Message{1, ctx.Id(), 0, 0}});
    }
    co_await ctx.Awake(static_cast<Round>(r), std::move(sends));
  }
}

void RunEngine(benchmark::State& state, const WeightedGraph& g,
               std::uint32_t shards, ShardPolicy policy) {
  std::uint64_t messages = 0;
  for (auto _ : state) {
    SimulatorOptions opt;
    opt.shards = shards;
    opt.shard_policy = policy;
    // The auditor is O(messages) bookkeeping; throughput numbers are for
    // the production configuration.
    opt.audit = AuditMode::kOff;
    Simulator sim(g, opt);
    sim.Run(ChatterNode);
    messages = sim.Stats().total_messages;
    benchmark::DoNotOptimize(messages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumNodes()) * kRounds);
  state.counters["messages"] =
      benchmark::Counter(static_cast<double>(messages));
  state.counters["shards"] = benchmark::Counter(static_cast<double>(shards));
}

// ----------------------------------------------------------------- ring

void BM_Ring(benchmark::State& state) {
  Xoshiro256 rng(1);
  const auto g = MakeRing(static_cast<std::size_t>(state.range(0)), rng);
  RunEngine(state, g, static_cast<std::uint32_t>(state.range(1)),
            ShardPolicy::kContiguousBlocks);
}
BENCHMARK(BM_Ring)
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 2})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 2})
    ->Args({1 << 21, 0})
    ->Args({1 << 21, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------- star

void BM_Star(benchmark::State& state) {
  Xoshiro256 rng(2);
  const auto g = MakeStar(static_cast<std::size_t>(state.range(0)), rng);
  RunEngine(state, g, static_cast<std::uint32_t>(state.range(1)),
            ShardPolicy::kRoundRobin);
}
BENCHMARK(BM_Star)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------ grc

void BM_Grc(benchmark::State& state) {
  Xoshiro256 rng(3);
  const auto inst = BuildGrc(4, static_cast<std::size_t>(state.range(0)), rng);
  RunEngine(state, inst.graph, static_cast<std::uint32_t>(state.range(1)),
            ShardPolicy::kContiguousBlocks);
}
BENCHMARK(BM_Grc)
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
