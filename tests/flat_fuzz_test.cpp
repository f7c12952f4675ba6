// Differential fuzz: seed-swept small random graphs, coroutine vs flat
// engine, both MST algorithms. A cheap, broad net over the lowering —
// any divergence in any observable (tests/run_identity.h) fails with the
// generating (topology seed, run seed) pair in the trace.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/mst/api.h"
#include "smst/runtime/simulator.h"
#include "tests/run_identity.h"

namespace smst {
namespace {

using testing::ExpectIdenticalRuns;

MstRunResult RunWith(const WeightedGraph& g, MstAlgorithm algo,
                     std::uint64_t seed, EngineMode engine) {
  MstOptions opt;
  opt.seed = seed;
  opt.engine = engine;
  return ComputeMst(g, algo, opt);
}

TEST(FlatFuzzTest, SeedSweptGraphsMatchAcrossEngines) {
  for (std::uint64_t topo_seed = 0; topo_seed < 12; ++topo_seed) {
    Xoshiro256 rng(1000 + topo_seed);
    const std::size_t n = 6 + 2 * (topo_seed % 6);  // 6..16 nodes
    const auto g = MakeErdosRenyi(n, 0.35, rng);
    for (MstAlgorithm algo :
         {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
      for (std::uint64_t seed : {1, 9}) {
        SCOPED_TRACE("topo_seed " + std::to_string(topo_seed) + " n " +
                     std::to_string(n) + " " + MstAlgorithmName(algo) +
                     " seed " + std::to_string(seed));
        ExpectIdenticalRuns(RunWith(g, algo, seed, EngineMode::kCoroutine),
                            RunWith(g, algo, seed, EngineMode::kFlat));
      }
    }
  }
}

}  // namespace
}  // namespace smst
