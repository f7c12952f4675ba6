#include "smst/mst/randomized_mst.h"

#include <cmath>
#include <memory>
#include <string>

#include "smst/mst/detail.h"
#include "smst/runtime/flat/flat_driver.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/merging.h"
#include "smst/sleeping/procedures.h"
#include "smst/util/prng.h"

namespace smst {

namespace {

constexpr std::uint16_t kTagFragId = 100;
constexpr std::uint16_t kTagPhaseCtl = 101;  // a=MOE weight, b=done, c=tails
constexpr std::uint16_t kTagMoeCoin = 102;   // a=MOE weight, b=tails
constexpr std::uint16_t kTagValidity = 103;

struct Shared : detail::RunShared {
  using RunShared::RunShared;
  detail::SelectionRule rule = detail::SelectionRule::kMinWeight;
  bool adaptive_blocks = false;
};

Task<void> NodeMain(NodeContext& ctx, Shared* sh);

// ---------------------------------------------------------------------
// Flat-engine lowering of NodeMain (DESIGN §13): the same script with
// every co_await turned into a (return round, case label) pair via the
// flat_driver.h macros. Identical message tags, schedule arithmetic,
// PRNG splits, probes, and error strings — the differential tests pin
// bit-identical results against the coroutine form.

struct FlatGhsNode {
  int pc = 0;
  Xoshiro256 rng{0};
  LdtState ldt;
  BlockCursor cursor{1, 1};
  std::vector<NodeId> nbr_frag;
  std::vector<bool> nbr_tails;
  std::uint64_t phase = 0;
  std::size_t span = 0;
  bool finished = false;
  std::uint64_t last_active_phase = 0;
  std::uint64_t depth_bound = 0;
  Message ctl{};
  Weight moe_weight = 0;
  bool tails = false;
  std::uint32_t moe_port = kNoPort;
  UpcastItem verdict;
  MergeRole role;
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  FlatMerge merge;
};

class FlatGhsProgram final : public FlatProgram {
 public:
  FlatGhsProgram(const WeightedGraph& g, Shared* sh, std::uint64_t seed)
      : g_(&g), sh_(sh), nodes_(g.NumNodes()) {
    // The same per-node PRNG split Simulator hands coroutine contexts,
    // so the roots' coin sequences match the coroutine run exactly.
    Xoshiro256 root(seed);
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      FlatGhsNode& st = nodes_[v];
      st.rng = root.Split(v);
      st.ldt = LdtState::Singleton(g.IdOf(v));
      st.cursor = BlockCursor(1, g.NumNodes());
      st.nbr_frag.assign(g.DegreeOf(v), 0);
      st.nbr_tails.assign(g.DegreeOf(v), false);
    }
  }

  Round Start(NodeIndex v, FlatEnv& env, SendBatch& sends) override {
    return Advance(v, env, kFlatNoInbox, sends);
  }

  Round Step(NodeIndex v, Round /*now*/, FlatEnv& env, const InboxBatch& inbox,
             SendBatch& sends) override {
    return Advance(v, env, inbox, sends);
  }

 private:
  Round Advance(NodeIndex v, FlatEnv& env, const InboxBatch& inbox,
                SendBatch& sends);

  const WeightedGraph* g_;
  Shared* sh_;
  std::vector<FlatGhsNode> nodes_;
};

Round FlatGhsProgram::Advance(NodeIndex v, FlatEnv& env,
                              const InboxBatch& inbox, SendBatch& sends) {
  FlatGhsNode& st = nodes_[v];
  const FlatNodeRef node{g_, v};
  const std::size_t n = node.NumNodesKnown();
  std::vector<bool>& mark = sh_->port_marks[v];
  Metrics& metrics = *env.metrics;

  switch (st.pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      for (st.phase = 1; st.phase <= sh_->phase_cap; ++st.phase) {
        st.span = sh_->adaptive_blocks
                      ? static_cast<std::size_t>(
                            std::min<std::uint64_t>(st.depth_bound + 1, n))
                      : n;
        st.cursor.SetSpan(st.span);
        st.depth_bound =
            std::min<std::uint64_t>(3 * st.depth_bound + 1, n - 1);
        if (st.finished) {  // paper mode: remaining phases are no-ops
          st.cursor.SkipBlocks(kRandomizedBlocksPerPhase);
          continue;
        }
        st.last_active_phase = st.phase;
        if (st.ldt.IsRoot()) metrics.Probe(kProbeFragmentsAtPhase, st.phase);

        // B1: learn adjacent fragment IDs.
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagFragId, st.ldt.fragment_id, 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, st.span).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagFragId) st.nbr_frag[m.port] = m.msg.a;
        }

        // B2: fragment MOE converges at the root.
        SMST_FLAT_SUB(st, umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), detail::LocalMoe(node, st.ldt, st.nbr_frag, sh_->rule), sends, st.span));

        // B3: root announces (MOE edge weight, DONE, coin).
        st.ctl = Message{};
        if (st.ldt.IsRoot()) {
          const bool done = st.umin.best.Absent();
          const bool tails = st.rng.NextCoin();
          st.ctl = Message{kTagPhaseCtl, st.umin.best.b,
                           done ? std::uint64_t{1} : 0,
                           tails ? std::uint64_t{1} : 0};
        }
        SMST_FLAT_SUB(st, bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), st.ctl, sends, st.span));
        st.moe_weight = st.bcast.msg.a;
        st.tails = st.bcast.msg.c != 0;
        if (st.bcast.msg.b != 0) {  // done
          st.finished = true;
          sh_->Snapshot(st.phase, v, st.ldt);
          if (sh_->termination == TerminationMode::kEarlyDetect) break;
          st.cursor.SkipBlocks(kRandomizedBlocksPerPhase - 3);
          continue;
        }

        // B4: exchange (MOE weight, coin) with adjacent fragments.
        st.nbr_tails.assign(node.Degree(), false);
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagMoeCoin, st.moe_weight, st.tails ? 1u : 0u, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, st.span).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagMoeCoin) st.nbr_tails[m.port] = m.msg.b != 0;
        }

        // Validity: decided by the (unique) MOE endpoint.
        st.moe_port =
            detail::PortOfOutgoingWeight(node, st.ldt, st.nbr_frag, st.moe_weight);
        st.verdict = UpcastItem{};
        if (st.moe_port != kNoPort) {
          const bool valid = st.tails && !st.nbr_tails[st.moe_port];
          st.verdict = UpcastItem{valid ? 0u : 1u, 0, 0};
        }

        // B5 + B6: verdict to root, then fragment-wide.
        SMST_FLAT_SUB(st, umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), st.verdict, sends, st.span));
        SMST_FLAT_SUB(st, bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), Message{kTagValidity, st.umin.best.key, 0, 0}, sends, st.span));

        // B7-B9: merge tails fragments into their heads fragments.
        st.role = MergeRole{};
        st.role.is_tails = st.tails && st.bcast.msg.a == 0;
        if (st.role.is_tails && st.moe_port != kNoPort) {
          st.role.attach_port = st.moe_port;
        }
        if (st.role.is_tails && st.ldt.IsRoot()) {
          metrics.Probe(kProbeMergesAtPhase, st.phase);
        }
        SMST_FLAT_SUB(st, merge, st.merge.Begin(node, st.ldt, st.cursor, st.role, mark, sends));
        sh_->Snapshot(st.phase, v, st.ldt);
      }

      if (!st.finished && sh_->termination == TerminationMode::kEarlyDetect) {
        throw NonTerminationError("Randomized-MST: phase cap " +
                                  std::to_string(sh_->phase_cap) +
                                  " exceeded without termination");
      }
      metrics.SetLastRound(st.cursor.NextRound() - 1);
      sh_->final_ldt[v] = st.ldt;
      sh_->phases_done[v] = st.last_active_phase;
      return kFlatDone;
  }
}

MstRunResult RunEngine(const WeightedGraph& g, const MstOptions& options,
                       detail::SelectionRule rule,
                       const TraceSink& trace = {}) {
  Shared sh(g, options,
            options.termination == TerminationMode::kPaperPhaseCount
                ? RandomizedPaperPhaseCount(g.NumNodes())
                : options.max_phase_factor *
                      (static_cast<std::uint64_t>(std::ceil(
                           std::log2(static_cast<double>(g.NumNodes())))) +
                       2));
  sh.rule = rule;
  sh.adaptive_blocks = options.adaptive_blocks;
  if (options.engine == EngineMode::kFlat) {
    return detail::RunDriver(
        g, options, sh, nullptr,
        std::make_unique<FlatGhsProgram>(g, &sh, options.seed), trace);
  }
  const NodeProgram program = [&sh](NodeContext& ctx) {
    return NodeMain(ctx, &sh);
  };
  return detail::RunDriver(g, options, sh, &program, nullptr, trace);
}

Task<void> NodeMain(NodeContext& ctx, Shared* sh) {
  const std::size_t n = ctx.NumNodesKnown();
  LdtState ldt = LdtState::Singleton(ctx.Id());
  std::vector<bool>& mark = sh->port_marks[ctx.Index()];
  std::vector<NodeId> nbr_frag(ctx.Degree(), 0);
  // Reused across phases (assign keeps the capacity) so the per-phase
  // steady state stays allocation-free.
  std::vector<bool> nbr_tails(ctx.Degree(), false);
  BlockCursor cursor(1, n);

  bool finished = false;
  std::uint64_t last_active_phase = 0;
  // Adaptive blocks: B_p bounds every fragment's depth at the start of
  // phase p (see MstOptions::adaptive_blocks). All nodes advance this
  // bound identically, so block boundaries stay globally agreed.
  std::uint64_t depth_bound = 0;
  for (std::uint64_t phase = 1; phase <= sh->phase_cap; ++phase) {
    const std::size_t span =
        sh->adaptive_blocks
            ? static_cast<std::size_t>(
                  std::min<std::uint64_t>(depth_bound + 1, n))
            : n;
    cursor.SetSpan(span);
    depth_bound = std::min<std::uint64_t>(3 * depth_bound + 1, n - 1);
    if (finished) {  // paper mode: remaining phases are no-ops, asleep
      cursor.SkipBlocks(kRandomizedBlocksPerPhase);
      continue;
    }
    last_active_phase = phase;
    if (ldt.IsRoot()) ctx.Probe(kProbeFragmentsAtPhase, phase);

    // B1: learn adjacent fragment IDs.
    {
      auto inbox = co_await TransmitAdjacent(
          ctx, ldt, cursor.TakeBlock(),
          ToAllPorts(ctx, Message{kTagFragId, ldt.fragment_id, 0, 0}), span);
      for (const InMessage& m : inbox) {
        if (m.msg.type == kTagFragId) nbr_frag[m.port] = m.msg.a;
      }
    }

    // Local MOE candidate among ports leading outside the fragment.
    const UpcastItem local_moe =
        detail::LocalMoe(ctx, ldt, nbr_frag, sh->rule);

    // B2: fragment MOE converges at the root.
    const UpcastItem frag_moe =
        co_await UpcastMin(ctx, ldt, cursor.TakeBlock(), local_moe, span);

    // B3: root announces (MOE edge weight, DONE, coin).
    Message ctl_msg{};
    if (ldt.IsRoot()) {
      const bool done = frag_moe.Absent();  // no outgoing edge: we span G
      const bool tails = ctx.Rng().NextCoin();
      ctl_msg = Message{kTagPhaseCtl, frag_moe.b,
                        done ? std::uint64_t{1} : 0,
                        tails ? std::uint64_t{1} : 0};
    }
    const Message ctl = co_await FragmentBroadcast(ctx, ldt,
                                                   cursor.TakeBlock(),
                                                   ctl_msg, span);
    const Weight moe_weight = ctl.a;
    const bool done = ctl.b != 0;
    const bool tails = ctl.c != 0;
    if (done) {
      finished = true;
      sh->Snapshot(phase, ctx.Index(), ldt);
      if (sh->termination == TerminationMode::kEarlyDetect) break;
      cursor.SkipBlocks(kRandomizedBlocksPerPhase - 3);
      continue;
    }

    // B4: exchange (MOE weight, coin) with adjacent fragments.
    nbr_tails.assign(ctx.Degree(), false);
    {
      auto inbox = co_await TransmitAdjacent(
          ctx, ldt, cursor.TakeBlock(),
          ToAllPorts(ctx, Message{kTagMoeCoin, moe_weight, tails ? 1u : 0u, 0}),
          span);
      for (const InMessage& m : inbox) {
        if (m.msg.type == kTagMoeCoin) nbr_tails[m.port] = m.msg.b != 0;
      }
    }

    // Validity: the MOE is valid iff we flipped tails and the fragment on
    // its far side flipped heads. Decided by the (unique) MOE endpoint.
    const std::uint32_t moe_port =
        detail::PortOfOutgoingWeight(ctx, ldt, nbr_frag, moe_weight);
    UpcastItem verdict;  // absent unless we are the endpoint
    if (moe_port != kNoPort) {
      const bool valid = tails && !nbr_tails[moe_port];
      verdict = UpcastItem{valid ? 0u : 1u, 0, 0};
    }

    // B5 + B6: verdict to root, then fragment-wide.
    const UpcastItem up =
        co_await UpcastMin(ctx, ldt, cursor.TakeBlock(), verdict, span);
    const Message valid_msg = co_await FragmentBroadcast(
        ctx, ldt, cursor.TakeBlock(), Message{kTagValidity, up.key, 0, 0},
        span);
    const bool merges = tails && valid_msg.a == 0;

    // B7-B9: merge tails fragments into their heads fragments.
    MergeRole role;
    role.is_tails = merges;
    if (merges && moe_port != kNoPort) role.attach_port = moe_port;
    if (merges && ldt.IsRoot()) ctx.Probe(kProbeMergesAtPhase, phase);
    co_await MergingFragments(ctx, ldt, cursor, role, mark);
    sh->Snapshot(phase, ctx.Index(), ldt);
  }

  if (!finished && sh->termination == TerminationMode::kEarlyDetect) {
    throw NonTerminationError("Randomized-MST: phase cap " +
                             std::to_string(sh->phase_cap) +
                             " exceeded without termination");
  }
  ctx.ReportTermination(cursor.NextRound() - 1);
  sh->final_ldt[ctx.Index()] = ldt;
  sh->phases_done[ctx.Index()] = last_active_phase;
}

}  // namespace

std::uint64_t RandomizedPaperPhaseCount(std::size_t n) {
  const double log43 = std::log(static_cast<double>(n)) / std::log(4.0 / 3.0);
  return 4 * static_cast<std::uint64_t>(std::ceil(log43)) + 1;
}

MstRunResult RunRandomizedMst(const WeightedGraph& g,
                              const MstOptions& options) {
  return RunEngine(g, options, detail::SelectionRule::kMinWeight);
}

namespace detail {

MstRunResult RunGhsStyle(const WeightedGraph& g, const MstOptions& options,
                         SelectionRule rule, const TraceSink& trace) {
  return RunEngine(g, options, rule, trace);
}

}  // namespace detail
}  // namespace smst
