// Traditional-model baseline ("GHS baseline"): Randomized-MST's run,
// re-metered under the always-awake cost model.
//
// In the standard CONGEST model a node participates (and therefore burns
// energy) in every round from start to termination, so its awake
// complexity *is* the round complexity. RunGhsBaseline does not execute
// a separate GHS protocol: it runs Randomized-MST (a GHS-style
// fragment-merging algorithm) and overwrites the awake meters with the
// round count (awake = rounds for every node). The message behaviour of
// an always-awake node would be identical (the protocol never sends to a
// round in which the receiver isn't listening), so no idle wake needs
// simulating. This is the comparison point the paper's introduction
// argues against: Theta(n log n) awake rounds instead of O(log n).
#pragma once

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"

namespace smst {

MstRunResult RunGhsBaseline(const WeightedGraph& g,
                            const MstOptions& options = {});

}  // namespace smst
