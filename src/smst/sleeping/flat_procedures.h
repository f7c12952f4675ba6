// Flat (coroutine-less) lowerings of the paper's toolbox procedures.
//
// Each struct here is the batched state-machine form of one procedure in
// procedures.h / merging.h / coloring.h: identical message tags, schedule
// rounds, LDT mutations, and error strings. Its Resume is a line-by-line
// transcription of the coroutine body, written with the same
// SMST_FLAT_AWAKE / SMST_FLAT_SUB resume macros as the flat MST drivers
// (runtime/flat/flat_driver.h). A driver (the flat MST programs in
// src/smst/mst/) embeds one instance per node and runs it like this:
//
//   Round r = sub.Begin(node, ..., sends);         // may push sends
//   while (r != kFlatDone) {
//     <return r to the engine; next Step delivers round r's inbox>
//     r = sub.Resume(node, inbox, sends);
//   }
//   <read the procedure's result fields>
//
// which is exactly what SMST_FLAT_SUB expands to. Begin records the
// arguments and runs Resume from the top (pc = 0) with an empty inbox.
// Begin/Resume return the next awake round with that round's sends
// already pushed into the driver's out-parameter, or kFlatDone when the
// procedure has finished — the exact contract of FlatProgram::Step, so a
// driver can forward a sub-machine's round verbatim. A procedure that
// never needs to wake (e.g. Upcast-Min at a childless root with nothing
// to send) finishes inside Begin and the driver continues synchronously,
// just as the coroutine form would run through without suspending.
//
// State referenced across suspensions (the LDT, the driver's NbrEntry /
// HPort vectors) is held by pointer; drivers keep those objects at stable
// addresses for the procedure's lifetime, exactly as coroutine frames
// keep references into the node's locals.
#pragma once

#include <cstdint>
#include <vector>

#include "smst/runtime/flat/program.h"
#include "smst/sleeping/coloring.h"
#include "smst/sleeping/ldt.h"
#include "smst/sleeping/merging.h"
#include "smst/sleeping/procedures.h"
#include "smst/sleeping/schedule.h"

namespace smst {

// Fragment-Broadcast(n): after completion, `msg` holds the broadcast
// message (the coroutine form's return value).
struct FlatBroadcast {
  ScheduleRounds sched;
  Message msg;
  const LdtState* ldt = nullptr;
  int pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, Round block_start,
              Message root_msg, SendBatch& sends, std::size_t span = 0);
  Round Resume(const FlatNodeRef& node, const InboxBatch& inbox,
               SendBatch& sends);
};

// Upcast-Min(n): after completion, `best` holds the subtree minimum (the
// coroutine form's return value).
struct FlatUpcastMin {
  ScheduleRounds sched;
  UpcastItem best;
  const LdtState* ldt = nullptr;
  int pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, Round block_start,
              UpcastItem own, SendBatch& sends, std::size_t span = 0);
  Round Resume(const FlatNodeRef& node, const InboxBatch& inbox,
               SendBatch& sends);
};

// Upcast-Sum(n): after completion, `result` holds the subtree total and
// the per-child breakdown.
struct FlatUpcastSum {
  ScheduleRounds sched;
  UpcastSumResult result;
  const LdtState* ldt = nullptr;
  int pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, Round block_start,
              std::uint64_t own, SendBatch& sends, std::size_t span = 0);
  Round Resume(const FlatNodeRef& node, const InboxBatch& inbox,
               SendBatch& sends);
};

// Merging-Fragments(n): mutates `ldt` and `mst_port_mark` in place with
// the same timing as the coroutine form (marks at sub-block A, LDT
// fields when the procedure completes).
struct FlatMerge {
  std::size_t span = 0;
  Round block_a = 0, block_b = 0, block_c = 0;
  ScheduleRounds sched;
  LdtState* ldt = nullptr;
  std::vector<bool>* mark = nullptr;
  MergeRole role;
  NodeId new_frag = 0;
  std::uint64_t new_level = 0;
  std::uint32_t new_parent_port = kNoPort;
  bool have_new = false;
  ChildPortList new_children;
  int pc = 0;

  Round Begin(const FlatNodeRef& node, LdtState& l, BlockCursor& cursor,
              MergeRole r, std::vector<bool>& m, SendBatch& sends);
  Round Resume(const FlatNodeRef& node, const InboxBatch& inbox,
               SendBatch& sends);
};

// Fast-Awake-Coloring(n, N): after completion, `result` holds my_color
// and the fragment's H-neighbor colors.
struct FlatColoring {
  const LdtState* ldt = nullptr;
  const std::vector<NbrEntry>* nbr = nullptr;
  const std::vector<HPort>* h_ports = nullptr;
  Round base = 0;
  Round block_len = 0;
  std::vector<NodeId> stages;
  std::size_t stage_i = 0;
  NodeId stage = 0;
  Round s0 = 0;
  UpcastItem heard;
  ColoringResult result;
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  int pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, BlockCursor& cursor,
              const std::vector<NbrEntry>& nbr_in,
              const std::vector<HPort>& h_ports_in, SendBatch& sends);
  Round Resume(const FlatNodeRef& node, const InboxBatch& inbox,
               SendBatch& sends);
};

}  // namespace smst
