// Internals shared by the MST drivers: the run harness both the
// randomized and the deterministic driver run through, and the pieces of
// the GHS-style sleeping algorithms (Randomized-MST and the
// Barenboim-Maimon-style spanning tree, which is the same engine with a
// different edge-selection rule). Not part of the public API.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"
#include "smst/runtime/coroutine_program.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/node.h"
#include "smst/runtime/trace.h"
#include "smst/sleeping/ldt.h"
#include "smst/sleeping/procedures.h"

namespace smst::detail {

// What a driver's node programs read and write during one run, besides
// their own state. Every output is written at node-indexed cells by that
// node alone, except the forest snapshots: they grow lazily as phases
// complete, and under the sharded engine nodes on different workers hit
// that growth concurrently, so Snapshot takes a lock. The final contents
// are order-independent: cell (phase-1, v) is written by node v alone.
struct RunShared {
  RunShared(const WeightedGraph& graph, const MstOptions& options,
            std::uint64_t phase_cap);

  const WeightedGraph* g;
  TerminationMode termination;
  std::uint64_t phase_cap;
  bool record_snapshots;
  std::vector<std::vector<bool>> port_marks;  // per node, per port
  std::vector<LdtState> final_ldt;
  std::vector<std::uint64_t> phases_done;  // last active phase per node
  std::vector<std::vector<LdtState>> snapshots;
  std::mutex snapshot_mutex;

  void Snapshot(std::uint64_t phase, NodeIndex v, const LdtState& ldt);
};

// Runs one driver's node programs under `options`: `coro` on the
// coroutine engine or `flat` on the flat one (exactly one is non-null,
// matching options.engine; the flat program is freed before assembly).
// A fault-free run throws on failure; under a non-empty fault plan the
// failure is classified into the result's outcome instead. Assembles the
// result from `sh`: the tree from the port marks, the phase count from
// the last active phase, the snapshots cut to it. `trace` (serial runs
// only) receives the per-awake events.
MstRunResult RunDriver(const WeightedGraph& g, const MstOptions& options,
                       RunShared& sh, const NodeProgram* coro,
                       std::unique_ptr<FlatProgram> flat,
                       const TraceSink& trace = {});

enum class SelectionRule {
  kMinWeight,      // choose the minimum-weight outgoing edge -> MST
  kMinNeighborId,  // choose any outgoing edge (min neighbor fragment ID,
                   // weight tie-break) -> arbitrary spanning tree
};

// Runs the coin-flip GHS engine with the given selection rule; `trace`
// (serial runs only) receives the run's per-(node, awake round) events.
MstRunResult RunGhsStyle(const WeightedGraph& g, const MstOptions& options,
                         SelectionRule rule, const TraceSink& trace = {});

// This node's best outgoing-edge candidate under `rule` (absent if every
// neighbor is in the same fragment). The item's `b` field always carries
// the edge weight, which identifies the edge globally. Templated over the
// node view so the coroutine (NodeContext) and flat (FlatNodeRef) engines
// share one definition.
template <typename Ctx>
UpcastItem LocalMoe(const Ctx& ctx, const LdtState& ldt,
                    const std::vector<NodeId>& nbr_frag, SelectionRule rule) {
  UpcastItem best;  // absent
  for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
    if (nbr_frag[p] == ldt.fragment_id) continue;
    const Weight w = ctx.WeightAtPort(p);
    UpcastItem candidate;
    switch (rule) {
      case SelectionRule::kMinWeight:
        candidate = UpcastItem{w, w, 0};
        break;
      case SelectionRule::kMinNeighborId:
        candidate = UpcastItem{nbr_frag[p], w, 0};
        break;
    }
    if (candidate < best) best = candidate;
  }
  return best;
}

// The port of this node's outgoing edge with the given weight, or kNoPort
// if the fragment's chosen edge is not incident here.
template <typename Ctx>
std::uint32_t PortOfOutgoingWeight(const Ctx& ctx, const LdtState& ldt,
                                   const std::vector<NodeId>& nbr_frag,
                                   Weight weight) {
  for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
    if (nbr_frag[p] != ldt.fragment_id && ctx.WeightAtPort(p) == weight) {
      return p;
    }
  }
  return kNoPort;
}

}  // namespace smst::detail
