// Shared run-identity check: two MST runs that must be bit-identical
// (engine forms, shard counts, thread counts, replays) agree in every
// observable — the tree, all aggregate and per-node metrics, wake times,
// probe telemetry, the final LDT and per-phase forest snapshots, and the
// classified outcome with its fault and audit meters.
#pragma once

#include <cstddef>

#include <gtest/gtest.h>

#include "smst/mst/result.h"
#include "smst/runtime/metrics.h"
#include "smst/sleeping/ldt.h"

namespace smst::testing {

inline void ExpectSameLdt(const LdtState& a, const LdtState& b) {
  EXPECT_EQ(a.fragment_id, b.fragment_id);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.parent_port, b.parent_port);
  ASSERT_EQ(a.child_ports.size(), b.child_ports.size());
  for (std::size_t i = 0; i < a.child_ports.size(); ++i) {
    EXPECT_EQ(a.child_ports[i], b.child_ports[i]);
  }
}

inline void ExpectSameStats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_awake, b.max_awake);
  EXPECT_EQ(a.avg_awake, b.avg_awake);  // exact, same sums
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.awake_node_rounds, b.awake_node_rounds);
}

inline void ExpectIdenticalRuns(const MstRunResult& a,
                                const MstRunResult& b) {
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.consistency_error, b.consistency_error);
  EXPECT_EQ(a.phases, b.phases);
  ExpectSameStats(a.stats, b.stats);

  ASSERT_EQ(a.node_metrics.size(), b.node_metrics.size());
  for (std::size_t v = 0; v < a.node_metrics.size(); ++v) {
    EXPECT_EQ(a.node_metrics[v].awake_rounds, b.node_metrics[v].awake_rounds);
    EXPECT_EQ(a.node_metrics[v].messages_sent,
              b.node_metrics[v].messages_sent);
    EXPECT_EQ(a.node_metrics[v].bits_sent, b.node_metrics[v].bits_sent);
    EXPECT_EQ(a.node_metrics[v].messages_dropped,
              b.node_metrics[v].messages_dropped);
  }
  EXPECT_EQ(a.wake_times, b.wake_times);
  EXPECT_EQ(a.fragments_per_phase, b.fragments_per_phase);
  EXPECT_EQ(a.blue_per_phase, b.blue_per_phase);
  ASSERT_EQ(a.final_ldt.size(), b.final_ldt.size());
  for (std::size_t v = 0; v < a.final_ldt.size(); ++v) {
    ExpectSameLdt(a.final_ldt[v], b.final_ldt[v]);
  }
  ASSERT_EQ(a.forest_per_phase.size(), b.forest_per_phase.size());
  for (std::size_t p = 0; p < a.forest_per_phase.size(); ++p) {
    ASSERT_EQ(a.forest_per_phase[p].size(), b.forest_per_phase[p].size());
    for (std::size_t v = 0; v < a.forest_per_phase[p].size(); ++v) {
      ExpectSameLdt(a.forest_per_phase[p][v], b.forest_per_phase[p][v]);
    }
  }

  EXPECT_EQ(a.outcome.status, b.outcome.status);
  EXPECT_EQ(a.outcome.detail, b.outcome.detail);
  EXPECT_EQ(a.outcome.unfinished_nodes, b.outcome.unfinished_nodes);
  EXPECT_EQ(a.outcome.last_round, b.outcome.last_round);
  EXPECT_EQ(a.outcome.faults, b.outcome.faults);
  EXPECT_EQ(a.outcome.audited_awake_node_rounds,
            b.outcome.audited_awake_node_rounds);
  EXPECT_EQ(a.outcome.audited_model_drops, b.outcome.audited_model_drops);
  EXPECT_EQ(a.outcome.audit_violations, b.outcome.audit_violations);
}

}  // namespace smst::testing
