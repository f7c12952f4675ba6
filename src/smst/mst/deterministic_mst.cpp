#include "smst/mst/deterministic_mst.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "smst/mst/detail.h"
#include "smst/runtime/flat/flat_driver.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/coloring.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/merging.h"
#include "smst/sleeping/procedures.h"

namespace smst {

namespace {

constexpr std::uint16_t kTagFragId = 110;
constexpr std::uint16_t kTagPhaseCtl = 111;     // a=MOE weight, b=done
constexpr std::uint16_t kTagMoeAnnounce = 112;  // a=our fragment's MOE weight
constexpr std::uint16_t kTagAllot = 113;        // a=token count for subtree
constexpr std::uint16_t kTagVerdict = 114;      // a=weight, b=selected?
constexpr std::uint16_t kTagValidity = 115;     // a=0 valid/1 invalid, b=target
constexpr std::uint16_t kTagNbrInfo = 116;      // a=weight, b=frag, c=outgoing

struct Shared : detail::RunShared {
  using RunShared::RunShared;
  bool log_star = false;  // Corollary 1's coloring instead of Fast-Awake
};

// A valid-MOE edge incident to this node.
struct LocalEntry {
  Weight weight = 0;
  NodeId frag = 0;
  bool outgoing = false;
  std::uint32_t port = kNoPort;
};

Task<void> NodeMain(NodeContext& ctx, Shared* sh) {
  const std::size_t n = ctx.NumNodesKnown();
  const NodeId N = ctx.MaxIdKnown();
  LdtState ldt = LdtState::Singleton(ctx.Id());
  std::vector<bool>& mark = sh->port_marks[ctx.Index()];
  std::vector<NodeId> nbr_frag(ctx.Degree(), 0);
  BlockCursor cursor(1, n);

  const bool log_star = sh->log_star;
  const std::uint64_t coloring_blocks =
      log_star ? LogStarColoringBlocks(n, N) : kColoringBlocksPerStage * N;
  const std::uint64_t blocks_per_phase =
      kDeterministicFixedBlocksPerPhase + coloring_blocks;

  bool finished = false;
  std::uint64_t last_active_phase = 0;
  for (std::uint64_t phase = 1; phase <= sh->phase_cap; ++phase) {
    if (finished) {
      cursor.SkipBlocks(blocks_per_phase);
      continue;
    }
    last_active_phase = phase;
    if (ldt.IsRoot()) ctx.Probe(kProbeFragmentsAtPhase, phase);

    // ---- step (i): find the fragment MOE -----------------------------
    // B1: learn adjacent fragment IDs.
    {
      auto inbox = co_await TransmitAdjacent(
          ctx, ldt, cursor.TakeBlock(),
          ToAllPorts(ctx, Message{kTagFragId, ldt.fragment_id, 0, 0}));
      for (const InMessage& m : inbox) {
        if (m.msg.type == kTagFragId) nbr_frag[m.port] = m.msg.a;
      }
    }

    // B2 + B3: MOE to the root and (MOE weight, DONE) back down.
    const UpcastItem local_moe =
        detail::LocalMoe(ctx, ldt, nbr_frag, detail::SelectionRule::kMinWeight);
    const UpcastItem frag_moe =
        co_await UpcastMin(ctx, ldt, cursor.TakeBlock(), local_moe);
    Message ctl_msg{};
    if (ldt.IsRoot()) {
      ctl_msg = Message{kTagPhaseCtl, frag_moe.b,
                        frag_moe.Absent() ? std::uint64_t{1} : 0, 0};
    }
    const Message ctl =
        co_await FragmentBroadcast(ctx, ldt, cursor.TakeBlock(), ctl_msg);
    const Weight moe_weight = ctl.a;
    if (ctl.b != 0) {  // DONE: this fragment spans the graph
      finished = true;
      sh->Snapshot(phase, ctx.Index(), ldt);
      if (sh->termination == TerminationMode::kEarlyDetect) break;
      cursor.SkipBlocks(blocks_per_phase - 3);
      continue;
    }

    // ---- step (i) continued: sparsify incoming MOEs to at most 3 -----
    // B4: announce our MOE weight; detect INCOMING-MOEs on our ports (a
    // neighbor's announced weight equals the shared edge's weight).
    SmallVec<std::uint32_t, 8> incoming_ports;  // inline for typical degrees
    {
      auto inbox = co_await TransmitAdjacent(
          ctx, ldt, cursor.TakeBlock(),
          ToAllPorts(ctx, Message{kTagMoeAnnounce, moe_weight, 0, 0}));
      for (const InMessage& m : inbox) {
        if (m.msg.type == kTagMoeAnnounce &&
            nbr_frag[m.port] != ldt.fragment_id &&
            m.msg.a == ctx.WeightAtPort(m.port)) {
          incoming_ports.push_back(m.port);
        }
      }
      std::sort(incoming_ports.begin(), incoming_ports.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return ctx.WeightAtPort(a) < ctx.WeightAtPort(b);
                });
    }

    // B5: incoming-MOE counts converge (per-subtree breakdown kept).
    const UpcastSumResult counts = co_await UpcastSum(
        ctx, ldt, cursor.TakeBlock(), incoming_ports.size());

    // B6: the root allots at most 3 tokens; each node selects its own
    // incoming edges (lightest first) and splits the rest by subtree.
    SmallVec<std::uint32_t, 8> valid_incoming;  // at most 3 selected
    {
      const Round block = cursor.TakeBlock();
      const auto sched = TransmissionSchedule(block, ldt.level, n);
      std::uint64_t allot = 0;
      if (ldt.IsRoot()) {
        allot = std::min<std::uint64_t>(3, counts.subtree_total);
      } else if (counts.subtree_total > 0) {
        auto inbox = co_await ctx.Awake(sched.down_receive);
        if (auto m = MessageFromPort(inbox, ldt.parent_port);
            m.has_value() && m->type == kTagAllot) {
          allot = m->a;
        }
      }
      for (std::uint32_t p : incoming_ports) {
        if (allot == 0) break;
        valid_incoming.push_back(p);
        --allot;
      }
      SendBatch sends;
      for (const auto& [child_port, child_total] : counts.child_totals) {
        const std::uint64_t give = std::min(allot, child_total);
        allot -= give;
        if (give > 0) {
          sends.push_back({child_port, Message{kTagAllot, give, 0, 0}});
        }
      }
      if (!sends.empty()) {
        co_await ctx.Awake(sched.down_send, std::move(sends));
      }
    }

    // B7: verdicts cross each incoming-MOE edge to its source fragment.
    const std::uint32_t moe_port =
        detail::PortOfOutgoingWeight(ctx, ldt, nbr_frag, moe_weight);
    bool out_valid = false;
    {
      SendBatch sends;
      for (std::uint32_t p : incoming_ports) {
        const bool selected =
            std::find(valid_incoming.begin(), valid_incoming.end(), p) !=
            valid_incoming.end();
        sends.push_back({p, Message{kTagVerdict, ctx.WeightAtPort(p),
                                    selected ? std::uint64_t{1} : 0, 0}});
      }
      auto inbox =
          co_await TransmitAdjacent(ctx, ldt, cursor.TakeBlock(), std::move(sends));
      if (moe_port != kNoPort) {
        if (auto m = MessageFromPort(inbox, moe_port);
            m.has_value() && m->type == kTagVerdict && m->a == moe_weight) {
          out_valid = m->b != 0;
        }
      }
    }

    // B8 + B9: outgoing validity to the root and fragment-wide. (The
    // paper encodes this with +-infinity sentinel weights in Upcast-Min;
    // an explicit flag is the same information.)
    UpcastItem verdict;
    if (moe_port != kNoPort) {
      verdict = UpcastItem{out_valid ? 0u : 1u, nbr_frag[moe_port], 0};
    }
    const UpcastItem up =
        co_await UpcastMin(ctx, ldt, cursor.TakeBlock(), verdict);
    const Message validity = co_await FragmentBroadcast(
        ctx, ldt, cursor.TakeBlock(), Message{kTagValidity, up.key, up.b, 0});
    const bool frag_out_valid = validity.a == 0;

    // ---- NBR-INFO gather: <=4 tuples fragment-wide (8 blocks) --------
    std::vector<LocalEntry> locals;
    for (std::uint32_t p : valid_incoming) {
      locals.push_back({ctx.WeightAtPort(p), nbr_frag[p], false, p});
    }
    if (moe_port != kNoPort && frag_out_valid) {
      locals.push_back({moe_weight, nbr_frag[moe_port], true, moe_port});
    }
    std::vector<NbrEntry> nbr_info;
    // Lambda and its captures are both locals of this coroutine frame and
    // the lambda never escapes it, so the references stay valid across the
    // co_awaits below. smst-lint-disable-next-line(coro-ref-capture)
    auto announced = [&](Weight w) {
      for (const NbrEntry& e : nbr_info) {
        if (e.weight == w) return true;
      }
      return false;
    };
    for (int k = 0; k < 4; ++k) {
      UpcastItem offer;
      for (const LocalEntry& e : locals) {
        if (announced(e.weight)) continue;
        UpcastItem candidate{e.weight, e.frag, e.outgoing ? 1u : 0u};
        if (candidate < offer) offer = candidate;
      }
      const UpcastItem got =
          co_await UpcastMin(ctx, ldt, cursor.TakeBlock(), offer);
      const Message msg = co_await FragmentBroadcast(
          ctx, ldt, cursor.TakeBlock(),
          Message{kTagNbrInfo, got.key, got.b, got.c});
      if (msg.a != kPlusInfinity && !announced(msg.a)) {
        nbr_info.push_back({msg.b, msg.a, msg.c != 0});
      }
    }

    // Our own boundary ports in H (deduplicated: a mutual MOE appears in
    // `locals` twice with the same port).
    std::vector<HPort> h_ports;
    for (const LocalEntry& e : locals) {
      bool dup = false;
      for (const HPort& hp : h_ports) dup |= hp.port == e.port;
      if (!dup) h_ports.push_back({e.port, e.frag});
    }

    // ---- step (ii): color H, then merge ------------------------------
    // The "mover" role (the paper's Blue): merges into a neighbor in
    // wave 1, or along its own MOE in wave 2 if isolated in H. With
    // Fast-Awake-Coloring movers are the Blue fragments; with the
    // Corollary-1 log* coloring they are the local color minima (same
    // independence and >= 1/341-per-component guarantees; see coloring.h).
    bool is_blue;
    if (!log_star) {
      const ColoringResult col =
          co_await FastAwakeColoring(ctx, ldt, cursor, nbr_info, h_ports);
      is_blue = col.my_color == FragColor::kBlue;
    } else if (nbr_info.empty()) {
      cursor.SkipBlocks(coloring_blocks);
      is_blue = true;  // isolated: trivially a local minimum
    } else {
      const LogStarResult col =
          co_await LogStarColoring(ctx, ldt, cursor, nbr_info, h_ports);
      is_blue = col.IsMover();
    }
    if (ldt.IsRoot() && is_blue) ctx.Probe(kProbeBlueAtPhase, phase);

    // Merge wave 1: Blue fragments with H-neighbors pick the lowest-ID
    // neighbor (any choice works; all its neighbors are non-Blue).
    {
      MergeRole role;
      if (is_blue && !nbr_info.empty()) {
        role.is_tails = true;
        // By value, not by pointer: NbrEntry is three words, and a copy
        // cannot go stale across the co_await below.
        NbrEntry chosen = nbr_info.front();
        for (const NbrEntry& e : nbr_info) {
          if (e.frag_id < chosen.frag_id ||
              (e.frag_id == chosen.frag_id && e.weight < chosen.weight)) {
            chosen = e;
          }
        }
        for (const LocalEntry& e : locals) {
          if (e.weight == chosen.weight) role.attach_port = e.port;
        }
        if (role.is_tails && ldt.IsRoot()) {
          ctx.Probe(kProbeMergesAtPhase, phase);
        }
      }
      co_await MergingFragments(ctx, ldt, cursor, role, mark);
    }

    // Merge wave 2: Blue singletons (isolated in H) follow their own MOE
    // into whatever fragment now sits at its far end.
    {
      MergeRole role;
      if (is_blue && nbr_info.empty()) {
        role.is_tails = true;
        if (moe_port != kNoPort) role.attach_port = moe_port;
        if (ldt.IsRoot()) ctx.Probe(kProbeMergesAtPhase, phase);
      }
      co_await MergingFragments(ctx, ldt, cursor, role, mark);
    }
    sh->Snapshot(phase, ctx.Index(), ldt);
  }

  if (!finished && sh->termination == TerminationMode::kEarlyDetect) {
    throw NonTerminationError("Deterministic-MST: phase cap " +
                             std::to_string(sh->phase_cap) +
                             " exceeded without termination");
  }
  ctx.ReportTermination(cursor.NextRound() - 1);
  sh->final_ldt[ctx.Index()] = ldt;
  sh->phases_done[ctx.Index()] = last_active_phase;
}

// ---------------------------------------------------------------------
// Flat-engine lowering of NodeMain (DESIGN §13). Fast-awake coloring
// only; RunDeterministicMst rejects the log* variant under the flat
// engine. Identical tags, schedule arithmetic, probes, and error strings
// — the differential tests pin bit-identical results.

bool NbrAnnounced(const std::vector<NbrEntry>& nbr_info, Weight w) {
  for (const NbrEntry& e : nbr_info) {
    if (e.weight == w) return true;
  }
  return false;
}

UpcastItem NbrOffer(const std::vector<LocalEntry>& locals,
                    const std::vector<NbrEntry>& nbr_info) {
  UpcastItem offer;
  for (const LocalEntry& e : locals) {
    if (NbrAnnounced(nbr_info, e.weight)) continue;
    UpcastItem candidate{e.weight, e.frag, e.outgoing ? 1u : 0u};
    if (candidate < offer) offer = candidate;
  }
  return offer;
}

struct FlatDetNode {
  int pc = 0;
  LdtState ldt;
  BlockCursor cursor{1, 1};
  std::vector<NodeId> nbr_frag;
  std::uint64_t phase = 0;
  bool finished = false;
  std::uint64_t last_active_phase = 0;
  Message ctl{};
  Weight moe_weight = 0;
  SmallVec<std::uint32_t, 8> incoming_ports;
  UpcastSumResult counts;
  ScheduleRounds b6_sched;
  std::uint64_t allot = 0;
  SmallVec<std::uint32_t, 8> valid_incoming;
  std::uint32_t moe_port = kNoPort;
  UpcastItem verdict;
  std::vector<LocalEntry> locals;
  std::vector<NbrEntry> nbr_info;
  std::vector<HPort> h_ports;
  int k = 0;
  bool is_blue = false;
  MergeRole role;
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  FlatUpcastSum usum;
  FlatMerge merge;
  FlatColoring coloring;
};

class FlatDetProgram final : public FlatProgram {
 public:
  FlatDetProgram(const WeightedGraph& g, Shared* sh)
      : g_(&g), sh_(sh), nodes_(g.NumNodes()) {
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      FlatDetNode& st = nodes_[v];
      st.ldt = LdtState::Singleton(g.IdOf(v));
      st.cursor = BlockCursor(1, g.NumNodes());
      st.nbr_frag.assign(g.DegreeOf(v), 0);
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
  std::vector<FlatDetNode> nodes_;
};

Round FlatDetProgram::Advance(NodeIndex v, FlatEnv& env,
                              const InboxBatch& inbox, SendBatch& sends) {
  FlatDetNode& st = nodes_[v];
  const FlatNodeRef node{g_, v};
  const std::size_t n = node.NumNodesKnown();
  const NodeId N = node.MaxIdKnown();
  std::vector<bool>& mark = sh_->port_marks[v];
  Metrics& metrics = *env.metrics;
  const std::uint64_t blocks_per_phase =
      kDeterministicFixedBlocksPerPhase + kColoringBlocksPerStage * N;

  switch (st.pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      for (st.phase = 1; st.phase <= sh_->phase_cap; ++st.phase) {
        if (st.finished) {
          st.cursor.SkipBlocks(blocks_per_phase);
          continue;
        }
        st.last_active_phase = st.phase;
        if (st.ldt.IsRoot()) metrics.Probe(kProbeFragmentsAtPhase, st.phase);

        // ---- step (i): find the fragment MOE -------------------------
        // B1: learn adjacent fragment IDs.
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagFragId, st.ldt.fragment_id, 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagFragId) st.nbr_frag[m.port] = m.msg.a;
        }

        // B2 + B3: MOE to the root and (MOE weight, DONE) back down.
        SMST_FLAT_SUB(st, umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), detail::LocalMoe(node, st.ldt, st.nbr_frag, detail::SelectionRule::kMinWeight), sends));
        st.ctl = Message{};
        if (st.ldt.IsRoot()) {
          st.ctl = Message{kTagPhaseCtl, st.umin.best.b,
                           st.umin.best.Absent() ? std::uint64_t{1} : 0, 0};
        }
        SMST_FLAT_SUB(st, bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), st.ctl, sends));
        st.moe_weight = st.bcast.msg.a;
        if (st.bcast.msg.b != 0) {  // DONE: this fragment spans the graph
          st.finished = true;
          sh_->Snapshot(st.phase, v, st.ldt);
          if (sh_->termination == TerminationMode::kEarlyDetect) break;
          st.cursor.SkipBlocks(blocks_per_phase - 3);
          continue;
        }

        // ---- step (i) continued: sparsify incoming MOEs to at most 3 -
        // B4: announce our MOE weight; detect INCOMING-MOEs.
        st.incoming_ports.clear();
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagMoeAnnounce, st.moe_weight, 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagMoeAnnounce &&
              st.nbr_frag[m.port] != st.ldt.fragment_id &&
              m.msg.a == node.WeightAtPort(m.port)) {
            st.incoming_ports.push_back(m.port);
          }
        }
        std::sort(st.incoming_ports.begin(), st.incoming_ports.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return node.WeightAtPort(a) < node.WeightAtPort(b);
                  });

        // B5: incoming-MOE counts converge (per-subtree breakdown kept).
        SMST_FLAT_SUB(st, usum, st.usum.Begin(node, st.ldt, st.cursor.TakeBlock(), st.incoming_ports.size(), sends));
        st.counts = st.usum.result;

        // B6: the root allots at most 3 tokens; each node selects its
        // own incoming edges (lightest first), splits the rest by
        // subtree.
        st.b6_sched = TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n);
        st.allot = 0;
        if (st.ldt.IsRoot()) {
          st.allot = std::min<std::uint64_t>(3, st.counts.subtree_total);
        } else if (st.counts.subtree_total > 0) {
          SMST_FLAT_AWAKE(st, st.b6_sched.down_receive);
          if (auto m = MessageFromPort(inbox, st.ldt.parent_port);
              m.has_value() && m->type == kTagAllot) {
            st.allot = m->a;
          }
        }
        st.valid_incoming.clear();
        for (std::uint32_t p : st.incoming_ports) {
          if (st.allot == 0) break;
          st.valid_incoming.push_back(p);
          --st.allot;
        }
        for (const auto& [child_port, child_total] : st.counts.child_totals) {
          const std::uint64_t give = std::min(st.allot, child_total);
          st.allot -= give;
          if (give > 0) {
            sends.push_back({child_port, Message{kTagAllot, give, 0, 0}});
          }
        }
        if (!sends.empty()) {
          SMST_FLAT_AWAKE(st, st.b6_sched.down_send);
        }

        // B7: verdicts cross each incoming-MOE edge to its source.
        st.moe_port = detail::PortOfOutgoingWeight(node, st.ldt, st.nbr_frag,
                                                   st.moe_weight);
        for (std::uint32_t p : st.incoming_ports) {
          const bool selected =
              std::find(st.valid_incoming.begin(), st.valid_incoming.end(),
                        p) != st.valid_incoming.end();
          sends.push_back({p, Message{kTagVerdict, node.WeightAtPort(p),
                                      selected ? std::uint64_t{1} : 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n).side);
        st.verdict = UpcastItem{};
        if (st.moe_port != kNoPort) {
          bool out_valid = false;
          if (auto m = MessageFromPort(inbox, st.moe_port);
              m.has_value() && m->type == kTagVerdict &&
              m->a == st.moe_weight) {
            out_valid = m->b != 0;
          }
          st.verdict =
              UpcastItem{out_valid ? 0u : 1u, st.nbr_frag[st.moe_port], 0};
        }

        // B8 + B9: outgoing validity to the root and fragment-wide.
        SMST_FLAT_SUB(st, umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), st.verdict, sends));
        SMST_FLAT_SUB(st, bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), Message{kTagValidity, st.umin.best.key, st.umin.best.b, 0}, sends));

        // ---- NBR-INFO gather: <=4 tuples fragment-wide (8 blocks) ----
        st.locals.clear();
        for (std::uint32_t p : st.valid_incoming) {
          st.locals.push_back({node.WeightAtPort(p), st.nbr_frag[p], false, p});
        }
        if (st.moe_port != kNoPort && st.bcast.msg.a == 0) {
          st.locals.push_back(
              {st.moe_weight, st.nbr_frag[st.moe_port], true, st.moe_port});
        }
        st.nbr_info.clear();
        for (st.k = 0; st.k < 4; ++st.k) {
          SMST_FLAT_SUB(st, umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), NbrOffer(st.locals, st.nbr_info), sends));
          SMST_FLAT_SUB(st, bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), Message{kTagNbrInfo, st.umin.best.key, st.umin.best.b, st.umin.best.c}, sends));
          if (st.bcast.msg.a != kPlusInfinity &&
              !NbrAnnounced(st.nbr_info, st.bcast.msg.a)) {
            st.nbr_info.push_back(
                {st.bcast.msg.b, st.bcast.msg.a, st.bcast.msg.c != 0});
          }
        }

        // Our own boundary ports in H (deduplicated).
        st.h_ports.clear();
        for (const LocalEntry& e : st.locals) {
          bool dup = false;
          for (const HPort& hp : st.h_ports) dup |= hp.port == e.port;
          if (!dup) st.h_ports.push_back({e.port, e.frag});
        }

        // ---- step (ii): color H, then merge --------------------------
        SMST_FLAT_SUB(st, coloring, st.coloring.Begin(node, st.ldt, st.cursor, st.nbr_info, st.h_ports, sends));
        st.is_blue = st.coloring.result.my_color == FragColor::kBlue;
        if (st.ldt.IsRoot() && st.is_blue) {
          metrics.Probe(kProbeBlueAtPhase, st.phase);
        }

        // Merge wave 1: Blue fragments with H-neighbors pick the
        // lowest-ID neighbor.
        st.role = MergeRole{};
        if (st.is_blue && !st.nbr_info.empty()) {
          st.role.is_tails = true;
          NbrEntry chosen = st.nbr_info.front();
          for (const NbrEntry& e : st.nbr_info) {
            if (e.frag_id < chosen.frag_id ||
                (e.frag_id == chosen.frag_id && e.weight < chosen.weight)) {
              chosen = e;
            }
          }
          for (const LocalEntry& e : st.locals) {
            if (e.weight == chosen.weight) st.role.attach_port = e.port;
          }
          if (st.role.is_tails && st.ldt.IsRoot()) {
            metrics.Probe(kProbeMergesAtPhase, st.phase);
          }
        }
        SMST_FLAT_SUB(st, merge, st.merge.Begin(node, st.ldt, st.cursor, st.role, mark, sends));

        // Merge wave 2: Blue singletons follow their own MOE.
        st.role = MergeRole{};
        if (st.is_blue && st.nbr_info.empty()) {
          st.role.is_tails = true;
          if (st.moe_port != kNoPort) st.role.attach_port = st.moe_port;
          if (st.ldt.IsRoot()) metrics.Probe(kProbeMergesAtPhase, st.phase);
        }
        SMST_FLAT_SUB(st, merge, st.merge.Begin(node, st.ldt, st.cursor, st.role, mark, sends));
        sh_->Snapshot(st.phase, v, st.ldt);
      }

      if (!st.finished && sh_->termination == TerminationMode::kEarlyDetect) {
        throw NonTerminationError("Deterministic-MST: phase cap " +
                                  std::to_string(sh_->phase_cap) +
                                  " exceeded without termination");
      }
      metrics.SetLastRound(st.cursor.NextRound() - 1);
      sh_->final_ldt[v] = st.ldt;
      sh_->phases_done[v] = st.last_active_phase;
      return kFlatDone;
  }
}

}  // namespace

std::uint64_t DeterministicPaperPhaseCount(std::size_t n) {
  const double base = 240000.0 / 239999.0;
  const double phases = std::log(static_cast<double>(n)) / std::log(base);
  return static_cast<std::uint64_t>(std::ceil(phases)) + 240000;
}

MstRunResult RunDeterministicMst(const WeightedGraph& g,
                                 const MstOptions& options,
                                 MstAlgorithm variant) {
  if (variant != MstAlgorithm::kDeterministic &&
      variant != MstAlgorithm::kDeterministicLogStar) {
    throw std::invalid_argument(std::string("RunDeterministicMst cannot run ") +
                                MstAlgorithmName(variant));
  }
  const bool log_star = variant == MstAlgorithm::kDeterministicLogStar;
  if (options.engine == EngineMode::kFlat && log_star) {
    throw std::invalid_argument(
        "the flat engine supports only the fast-awake coloring "
        "(use --engine coroutine for logstar)");
  }
  // Each phase with >= 2 fragments retires at least one (every H
  // component loses its Blue fragments; every singleton merges), so n+1
  // phases always suffice; the paper's budget is the w.h.p.-style
  // worst-case constant-factor bound.
  Shared sh(g, options,
            options.termination == TerminationMode::kPaperPhaseCount
                ? DeterministicPaperPhaseCount(g.NumNodes())
                : g.NumNodes() + 1);
  sh.log_star = log_star;
  if (options.engine == EngineMode::kFlat) {
    return detail::RunDriver(g, options, sh, nullptr,
                             std::make_unique<FlatDetProgram>(g, &sh));
  }
  const NodeProgram program = [&sh](NodeContext& ctx) {
    return NodeMain(ctx, &sh);
  };
  return detail::RunDriver(g, options, sh, &program, nullptr);
}

}  // namespace smst
