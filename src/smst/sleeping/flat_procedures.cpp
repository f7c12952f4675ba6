#include "smst/sleeping/flat_procedures.h"

#include <algorithm>
#include <string>

#include "smst/faults/run_outcome.h"
#include "smst/runtime/flat/flat_driver.h"

namespace smst {

namespace {

constexpr auto FromPort = MessageFromPort;

// Same classification and text as merging.cpp's ProtocolError.
[[noreturn]] void MergeProtocolError(const FlatNodeRef& node,
                                     const std::string& what) {
  throw ProtocolStallError("MergingFragments: node " +
                           std::to_string(node.Id()) + ": " + what);
}

}  // namespace

// Each flat class below is a transcription of a coroutine procedure; the
// twin directives let smst_lint cross-check that the two sides still use
// the same message tags and error strings.
// smst-lint-twin(FlatBroadcast=FragmentBroadcast)
// smst-lint-twin(FlatUpcastMin=UpcastMin)
// smst-lint-twin(FlatUpcastSum=UpcastSum)
// smst-lint-twin(FlatMerge=MergingFragments)
// smst-lint-twin(FlatColoring=FastAwakeColoring)

// --- Fragment-Broadcast -----------------------------------------------

Round FlatBroadcast::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, Message root_msg,
                           SendBatch& sends, std::size_t span) {
  ldt = &l;
  sched = TransmissionSchedule(block_start, l.level,
                               span == 0 ? node.NumNodesKnown() : span);
  msg = root_msg;
  pc = 0;
  return Resume(node, kFlatNoInbox, sends);
}

Round FlatBroadcast::Resume(const FlatNodeRef& node, const InboxBatch& inbox,
                            SendBatch& sends) {
  switch (pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      if (!ldt->IsRoot()) {
        SMST_FLAT_AWAKE(*this, sched.down_receive);
        const auto from_parent = FromPort(inbox, ldt->parent_port);
        if (!from_parent.has_value()) {
          // Drop-free by construction in the sleeping model, so a missing
          // parent message is a fault effect: classified, not a crash.
          throw ProtocolStallError(
              "FragmentBroadcast: node " + std::to_string(node.Id()) +
              " heard nothing from its parent in its Down-Receive round");
        }
        msg = *from_parent;
      }
      if (!ldt->child_ports.empty()) {
        for (std::uint32_t p : ldt->child_ports) sends.push_back({p, msg});
        SMST_FLAT_AWAKE(*this, sched.down_send);
      }
      return kFlatDone;
  }
}

// --- Upcast-Min --------------------------------------------------------

Round FlatUpcastMin::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, UpcastItem own, SendBatch& sends,
                           std::size_t span) {
  ldt = &l;
  sched = TransmissionSchedule(block_start, l.level,
                               span == 0 ? node.NumNodesKnown() : span);
  best = own;
  pc = 0;
  return Resume(node, kFlatNoInbox, sends);
}

Round FlatUpcastMin::Resume(const FlatNodeRef& /*node*/,
                            const InboxBatch& inbox, SendBatch& sends) {
  switch (pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      if (!ldt->child_ports.empty()) {
        SMST_FLAT_AWAKE(*this, sched.up_receive);
        for (std::uint32_t p : ldt->child_ports) {
          if (auto m = FromPort(inbox, p); m.has_value()) {
            UpcastItem item{m->a, m->b, m->c};
            if (item < best) best = item;
          }
        }
      }
      if (!ldt->IsRoot() && !best.Absent()) {
        sends.push_back({ldt->parent_port,
                         Message{kTagUpcastMin, best.key, best.b, best.c}});
        SMST_FLAT_AWAKE(*this, sched.up_send);
      }
      return kFlatDone;
  }
}

// --- Upcast-Sum --------------------------------------------------------

Round FlatUpcastSum::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, std::uint64_t own,
                           SendBatch& sends, std::size_t span) {
  ldt = &l;
  sched = TransmissionSchedule(block_start, l.level,
                               span == 0 ? node.NumNodesKnown() : span);
  result = UpcastSumResult{};
  result.subtree_total = own;
  pc = 0;
  return Resume(node, kFlatNoInbox, sends);
}

Round FlatUpcastSum::Resume(const FlatNodeRef& /*node*/,
                            const InboxBatch& inbox, SendBatch& sends) {
  switch (pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      if (!ldt->child_ports.empty()) {
        SMST_FLAT_AWAKE(*this, sched.up_receive);
        for (std::uint32_t p : ldt->child_ports) {
          std::uint64_t child_total = 0;
          if (auto m = FromPort(inbox, p); m.has_value()) child_total = m->a;
          result.child_totals.emplace_back(p, child_total);
          result.subtree_total += child_total;
        }
      }
      if (!ldt->IsRoot() && result.subtree_total > 0) {
        sends.push_back({ldt->parent_port,
                         Message{kTagUpcastSum, result.subtree_total, 0, 0}});
        SMST_FLAT_AWAKE(*this, sched.up_send);
      }
      return kFlatDone;
  }
}

// --- Merging-Fragments --------------------------------------------------

Round FlatMerge::Begin(const FlatNodeRef& node, LdtState& l,
                       BlockCursor& cursor, MergeRole r, std::vector<bool>& m,
                       SendBatch& sends) {
  ldt = &l;
  mark = &m;
  role = r;
  span = cursor.Span();
  block_a = cursor.TakeBlock();
  block_b = cursor.TakeBlock();
  block_c = cursor.TakeBlock();
  pc = 0;
  return Resume(node, kFlatNoInbox, sends);
}

Round FlatMerge::Resume(const FlatNodeRef& node, const InboxBatch& inbox,
                        SendBatch& sends) {
  switch (pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      // Pending NEW-* values (the paper's NEW-FRAGMENT-ID / NEW-LEVEL-NUM)
      // and re-orientation, applied only after sub-block C.
      have_new = false;
      new_frag = 0;
      new_level = 0;
      new_parent_port = ldt->parent_port;
      new_children = ldt->child_ports;

      // --- sub-block A: Side exchange of (fragment ID, level, ATTACH) ----
      sched = TransmissionSchedule(block_a, ldt->level, span);
      for (std::uint32_t p = 0; p < node.Degree(); ++p) {
        const std::uint64_t attach =
            (role.is_tails && p == role.attach_port) ? 1 : 0;
        sends.push_back(
            {p, Message{kTagMergeSide, ldt->fragment_id, ldt->level, attach}});
      }
      SMST_FLAT_AWAKE(*this, sched.side);
      for (const InMessage& m : inbox) {
        if (m.msg.type != kTagMergeSide) continue;
        if (m.msg.c == 1) {
          // A neighbor attaches to us over this edge: we gain a child.
          if (role.is_tails) {
            MergeProtocolError(node, "a tails node received an ATTACH flag");
          }
          new_children.push_back(m.port);
          (*mark)[m.port] = true;
        }
      }
      if (role.is_tails && role.attach_port != kNoPort) {
        const auto from_target = FromPort(inbox, role.attach_port);
        if (!from_target.has_value()) {
          MergeProtocolError(node, "merge target silent in the Side round");
        }
        new_frag = from_target->a;
        new_level = from_target->b + 1;
        have_new = true;
        // Re-root: the merge target becomes the parent; all old tree
        // neighbors (old children and old parent) become children.
        new_parent_port = role.attach_port;
        if (ldt->parent_port != kNoPort) {
          new_children.push_back(ldt->parent_port);
        }
        (*mark)[role.attach_port] = true;
      }

      if (role.is_tails) {
        // --- sub-block B: first schedule instance (up the old tree) ------
        // The NEW values travel from u_T to the old root; each path node
        // re-orients toward the child it heard from.
        sched = TransmissionSchedule(block_b, ldt->level, span);
        if (!ldt->child_ports.empty()) {
          SMST_FLAT_AWAKE(*this, sched.up_receive);
          std::uint32_t sender = kNoPort;
          for (std::uint32_t p : ldt->child_ports) {
            if (auto m = FromPort(inbox, p); m.has_value()) {
              if (sender != kNoPort) {
                MergeProtocolError(node, "two children on the re-root path");
              }
              sender = p;
              new_level = m->a + 1;
              new_frag = m->b;
              have_new = true;
            }
          }
          if (sender != kNoPort) {
            // New parent = that child; old parent (if any) becomes a child.
            new_parent_port = sender;
            new_children = ldt->child_ports;
            new_children.erase(
                std::remove(new_children.begin(), new_children.end(), sender),
                new_children.end());
            if (ldt->parent_port != kNoPort) {
              new_children.push_back(ldt->parent_port);
            }
          }
        }
        if (have_new && !ldt->IsRoot()) {
          sends.push_back({ldt->parent_port,
                           Message{kTagMergeUp, new_level, new_frag, 0}});
          SMST_FLAT_AWAKE(*this, sched.up_send);
        }

        // --- sub-block C: second instance (down the old tree) ------------
        // Still-empty nodes adopt (old parent's NEW level + 1); orientation
        // unchanged for them.
        sched = TransmissionSchedule(block_c, ldt->level, span);
        if (!have_new) {
          if (ldt->IsRoot()) {
            // The old root is always on the u_T -> root path.
            MergeProtocolError(node,
                               "tails root has no NEW values after the up pass");
          }
          SMST_FLAT_AWAKE(*this, sched.down_receive);
          const auto m = FromPort(inbox, ldt->parent_port);
          if (!m.has_value()) {
            MergeProtocolError(node, "no NEW values arrived in the down pass");
          }
          new_level = m->a + 1;
          new_frag = m->b;
          have_new = true;
        }
        // Send down to every old child except the one the NEW values came
        // from (a path node's sender child already has them and sleeps
        // through Down-Receive; skipping it keeps the protocol drop-free).
        if (std::any_of(ldt->child_ports.begin(), ldt->child_ports.end(),
                        [this](std::uint32_t p) {
                          return p != new_parent_port;
                        })) {
          for (std::uint32_t p : ldt->child_ports) {
            if (p == new_parent_port) continue;
            sends.push_back({p, Message{kTagMergeDown, new_level, new_frag, 0}});
          }
          SMST_FLAT_AWAKE(*this, sched.down_send);
        }

        ldt->fragment_id = new_frag;
        ldt->level = new_level;
        ldt->parent_port = new_parent_port;
      }
      // Heads fragments keep ID / level / parent, and gain attach children.
      ldt->child_ports = std::move(new_children);
      return kFlatDone;
  }
}

// --- Fast-Awake-Coloring -------------------------------------------------

Round FlatColoring::Begin(const FlatNodeRef& node, const LdtState& l,
                          BlockCursor& cursor,
                          const std::vector<NbrEntry>& nbr_in,
                          const std::vector<HPort>& h_ports_in,
                          SendBatch& sends) {
  ldt = &l;
  nbr = &nbr_in;
  h_ports = &h_ports_in;
  block_len = ScheduleBlockLength(node.NumNodesKnown());
  base = cursor.NextRound();
  // Claim all N stages' blocks up front; the stages this node sleeps
  // through cost nothing but this local arithmetic.
  cursor.SkipBlocks(kColoringBlocksPerStage * node.MaxIdKnown());
  pc = 0;
  return Resume(node, kFlatNoInbox, sends);
}

Round FlatColoring::Resume(const FlatNodeRef& node, const InboxBatch& inbox,
                           SendBatch& sends) {
  switch (pc) {
    default:
      throw FlatCorruptPc();
    case 0:
      // The (at most 5) stages this node participates in, in stage order.
      stages.assign(1, ldt->fragment_id);
      for (const NbrEntry& e : *nbr) stages.push_back(e.frag_id);
      std::sort(stages.begin(), stages.end());
      stages.erase(std::unique(stages.begin(), stages.end()), stages.end());

      result = ColoringResult{};
      for (stage_i = 0; stage_i < stages.size(); ++stage_i) {
        stage = stages[stage_i];
        // Block k of the stage starts at s0 + k * block_len: Upcast-Min
        // (choice), Fragment-Broadcast (choice), Transmit-Adjacent
        // (announce), Upcast-Min (received color), Fragment-Broadcast
        // (received).
        s0 = base + (stage - 1) * kColoringBlocksPerStage * block_len;

        if (stage == ldt->fragment_id) {
          // Our turn. All earlier-colored neighbors are in neighbor_colors,
          // so every node of the fragment computes the same greedy choice.
          SMST_FLAT_SUB(*this, umin, umin.Begin(node, *ldt, s0, UpcastItem{static_cast<std::uint64_t>(ColoringGreedyChoice(result.neighbor_colors)), 0, 0}, sends));
          SMST_FLAT_SUB(*this, bcast, bcast.Begin(node, *ldt, s0 + block_len, Message{kTagColorChoice, umin.best.key, 0, 0}, sends));
          result.my_color = ColoringCheckedColor(bcast.msg.a);
          // Announce to neighbor fragments over the valid-MOE edges.
          if (!h_ports->empty()) {
            for (const HPort& hp : *h_ports) {
              sends.push_back(
                  {hp.port,
                   Message{kTagColorAnnounce,
                           static_cast<std::uint64_t>(result.my_color),
                           ldt->fragment_id, 0}});
            }
            SMST_FLAT_AWAKE(*this, TransmissionSchedule(s0 + 2 * block_len, ldt->level, node.NumNodesKnown()).side);
          }
          // Blocks 3 and 4 belong to the listening side; we sleep.
        } else {
          // A neighbor's turn: learn its color fragment-wide.
          heard = UpcastItem{};  // absent unless we border fragment `stage`
          if (std::any_of(h_ports->begin(), h_ports->end(),
                          [this](const HPort& hp) {
                            return hp.neighbor_frag == stage;
                          })) {
            SMST_FLAT_AWAKE(*this, TransmissionSchedule(s0 + 2 * block_len, ldt->level, node.NumNodesKnown()).side);
            for (const InMessage& m : inbox) {
              if (m.msg.type == kTagColorAnnounce && m.msg.b == stage) {
                heard = UpcastItem{m.msg.a, stage, 0};
              }
            }
          }
          SMST_FLAT_SUB(*this, umin, umin.Begin(node, *ldt, s0 + 3 * block_len, heard, sends));
          SMST_FLAT_SUB(*this, bcast, bcast.Begin(node, *ldt, s0 + 4 * block_len, Message{kTagColorNbr, umin.best.key, stage, 0}, sends));
          result.neighbor_colors[stage] = ColoringCheckedColor(bcast.msg.a);
        }
      }
      return kFlatDone;
  }
}

}  // namespace smst
