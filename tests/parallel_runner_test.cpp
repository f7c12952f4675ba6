// ParallelRunner: thread count must be invisible in the results.
//
// The batch runner's contract is bit-identical output to a serial loop —
// every (algorithm, graph, seed) cell derives its randomness only from
// its own seed, so a 4-thread sweep must reproduce the 1-thread sweep
// field for field (tests/run_identity.h). These tests are also the TSan
// target in CI: they exercise the pool with more threads than cores and
// with failing jobs in flight.
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/runtime/parallel_runner.h"
#include "tests/run_identity.h"

namespace smst {
namespace {

using testing::ExpectIdenticalRuns;

TEST(ParallelRunnerTest, FourThreadSweepMatchesSerialBitForBit) {
  // Both MST algorithms × two sizes × three seeds, as one batch.
  std::vector<WeightedGraph> graphs;
  for (std::size_t n : {32u, 48u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Xoshiro256 rng(n * 31 + seed);
      graphs.push_back(MakeErdosRenyi(n, 8.0 / double(n), rng));
    }
  }
  std::vector<RunSpec> specs;
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      specs.push_back(RunSpec{&graphs[gi], algo, {}, 1 + gi % 3});
    }
  }

  const auto serial = ParallelRunner(1).RunAll(specs);
  const auto parallel = ParallelRunner(4).RunAll(specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    ExpectIdenticalRuns(serial[i], parallel[i]);
  }
}

TEST(ParallelRunnerTest, RepeatedParallelBatchesAreStable) {
  Xoshiro256 rng(99);
  const auto g = MakeErdosRenyi(64, 0.125, rng);
  std::vector<RunSpec> specs;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    specs.push_back(RunSpec{&g, MstAlgorithm::kRandomized, {}, s});
  }
  ParallelRunner runner(4);
  const auto first = runner.RunAll(specs);
  const auto second = runner.RunAll(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    ExpectIdenticalRuns(first[i], second[i]);
  }
}

TEST(ParallelRunnerTest, SeedFieldOverridesOptionsSeed) {
  Xoshiro256 rng(7);
  const auto g = MakeErdosRenyi(48, 0.2, rng);
  MstOptions options;
  options.seed = 5;
  const auto runs = ParallelRunner(2).RunAll({
      RunSpec{&g, MstAlgorithm::kRandomized, options, 0},  // keeps seed 5
      RunSpec{&g, MstAlgorithm::kRandomized, options, 5},  // explicit 5
      RunSpec{&g, MstAlgorithm::kRandomized, options, 6},
  });
  ExpectIdenticalRuns(runs[0], runs[1]);
  EXPECT_EQ(runs[0].tree_edges, runs[2].tree_edges);  // same unique MST
  // Different seed, different coin flips: some execution metric moves.
  EXPECT_NE(runs[0].stats.total_bits, runs[2].stats.total_bits);
}

TEST(ParallelRunnerTest, FirstSubmittedFailureIsRethrown) {
  Xoshiro256 rng(3);
  const auto g = MakeErdosRenyi(32, 0.25, rng);
  std::vector<RunSpec> specs(6, RunSpec{&g, MstAlgorithm::kRandomized, {}, 1});
  specs[2].graph = nullptr;  // fails; later jobs still run
  EXPECT_THROW(ParallelRunner(4).RunAll(specs), std::invalid_argument);
}

TEST(ParallelRunnerTest, ForEachCoversEveryIndexExactlyOnce) {
  ParallelRunner runner(8);  // more workers than cores on CI, on purpose
  std::vector<int> hits(100, 0);
  runner.ForEach(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelRunnerTest, ForEachRethrowsSmallestFailingIndex) {
  ParallelRunner runner(4);
  try {
    runner.ForEach(50, [&](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error("job " + std::to_string(i));
    });
    FAIL() << "expected a job failure to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 3");
  }
}

TEST(ParallelRunnerTest, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(ParallelRunner(0).Threads(), 1u);
  EXPECT_EQ(ParallelRunner(3).Threads(), 3u);
}

}  // namespace
}  // namespace smst
