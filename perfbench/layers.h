// Per-layer probes for the traced run. Each drives one layer of the
// library from outside, through that layer's public functions only.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/mst/result.h"
#include "smst/runtime/simulator.h"

namespace smst::perfbench {

// -- runtime: the wake shape of a recorded run --------------------------

// Active rounds (rounds with at least one node awake) and awake
// node-rounds, bucketed by how many nodes are awake in the round:
// 1, 2-15, 16-255, 256..n-1, n.
struct WakeShape {
  static constexpr std::size_t kBuckets = 5;
  static const std::array<const char*, kBuckets> kBucketNames;
  std::array<std::uint64_t, kBuckets> active_rounds{};
  std::array<std::uint64_t, kBuckets> awake_node_rounds{};

  std::uint64_t ActiveRounds() const;
  std::uint64_t AwakeNodeRounds() const;
  void Add(const WakeShape& other);
};

WakeShape MeasureWakeShape(
    std::size_t n, const std::vector<std::vector<std::uint64_t>>& wake_times);

// -- runtime: replaying a recorded wake shape ---------------------------

struct ReplayResult {
  double seconds = 0;  // Simulator::Run only
  RunStats stats;
};

// Runs a program with no algorithm logic that wakes every node at exactly
// its rounds in `recorded.wake_times` and spreads that node's recorded
// message count over its wakes. Runs on `options`' engine and shard
// count; throws std::logic_error if the engine wakes a node in any other
// round than the recorded one.
ReplayResult ReplayWakeShape(const WeightedGraph& g,
                             const MstRunResult& recorded,
                             const SimulatorOptions& options);

// -- sleeping: one toolbox procedure in isolation -----------------------

enum class Procedure { kBroadcast, kUpcastMin, kUpcastSum, kTransmitAdjacent };
inline constexpr std::array<Procedure, 4> kProcedures = {
    Procedure::kBroadcast, Procedure::kUpcastMin, Procedure::kUpcastSum,
    Procedure::kTransmitAdjacent};
const char* ProcedureName(Procedure p);  // "broadcast", "upcast_min", ...

struct ProcedureResult {
  double seconds = 0;  // Simulator::Run only
  std::uint64_t max_wakes = 0;
  std::string error;  // empty when every node's output is right
};

// Runs `p` once, in the block starting at round 1, over the LDT forest
// `ldt` (one entry per node), on `options`' engine: the coroutine form
// from procedures.h, or its flat twin from flat_procedures.h.
ProcedureResult RunProcedure(const WeightedGraph& g,
                             const std::vector<LdtState>& ldt, Procedure p,
                             const SimulatorOptions& options);

}  // namespace smst::perfbench
