// The benchmark's workloads: which graphs a seed draws, which algorithm
// runs on each, with which engine, and how each cell's output is checked.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"

namespace smst::perfbench {

struct WorkloadSpec {
  std::string_view name;
  std::size_t n = 0;  // Erdős–Rényi G(n, 8/n), IDs a permutation of 1..n
  // One cell per (graph, algorithm), graph-major.
  std::vector<MstAlgorithm> algorithms;
  EngineMode engine = EngineMode::kCoroutine;
  std::uint32_t shards = 0;
  // Distinct graphs in one pass of the timed phase: enough that the
  // pass time averages out how much work one graph draw happens to need.
  std::size_t graphs = 1;
  // Graph sets generated during set-up; setup_s is their median.
  int setup_repeats = 1;
  // Graphs whose cells the traced run takes apart layer by layer.
  std::size_t traced_graphs = 1;
};

// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);
std::string WorkloadNames();

// The workload's graph set for `seed`: the same seed gives the same graphs.
std::vector<WeightedGraph> GenerateGraphs(const WorkloadSpec& w,
                                          std::uint64_t seed);

struct Cell {
  std::size_t graph = 0;
  MstAlgorithm algorithm = MstAlgorithm::kRandomized;
  MstOptions options;
};

// The cells of the first `graphs` graphs, graph-major, each with its own
// run seed derived from `seed`.
std::vector<Cell> MakeCells(const WorkloadSpec& w, std::uint64_t seed,
                            std::size_t graphs);

// Empty when `r` is a correct output of the cell: outcome completed, no
// endpoint disagreement, and the exact MST (a spanning tree for BM).
std::string CheckCell(const WeightedGraph& g, const Cell& cell,
                      const MstRunResult& r);

// Empty when the two runs produced the same tree and the same RunStats
// and phase count; otherwise names the first field that differs.
std::string CompareRuns(const MstRunResult& a, const MstRunResult& b);

// The Simulator options ComputeMst derives from the cell's MstOptions.
SimulatorOptions SimOptionsOf(const MstOptions& o);

}  // namespace smst::perfbench
