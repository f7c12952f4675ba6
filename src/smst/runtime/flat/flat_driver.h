// Duff's-device helpers for writing flat state machines.
//
// Every flat state machine — the toolbox procedures in
// sleeping/flat_procedures.h and the MST drivers built on them — keeps
// its state in a struct with an integer `pc` and runs its whole script
// inside `switch (pc)`. The two macros below turn a coroutine suspension
// into a (return, case-label) pair so the script reads almost exactly
// like its coroutine twin:
//
//   switch (st.pc) {
//     default: throw FlatCorruptPc();
//     case 0:
//       ...
//       // co_await ctx.Awake(r, sends)  ==>  (sends pushed just before)
//       SMST_FLAT_AWAKE(st, r);
//       ... use `inbox` ...
//       // co_await UpcastMin(...)  ==>
//       SMST_FLAT_SUB(st, umin, st.umin.Begin(node, ..., sends));
//       ... use st.umin.best ...
//       return kFlatDone;
//   }
//
// A procedure struct passes `*this` as `st`. Its Begin records its
// arguments, sets `pc = 0` and runs the script from the top with
// kFlatNoInbox, as a driver's Start does.
//
// Rules the call site must follow (C++ jump-into-scope rules):
//  - each macro invocation sits on its own source line (`__LINE__` is the
//    case key), inside the state machine's `switch (pc)`;
//  - `node` (FlatNodeRef), `inbox` (const InboxBatch&) and `sends`
//    (SendBatch&) are in scope at every invocation — SMST_FLAT_SUB
//    resumes the sub-machine with exactly those names;
//  - no local variable with an initializer may be in scope at a macro
//    invocation (jumping to its case label would skip the
//    initialization); persistent values live in the state struct,
//    scratch values in blocks that end before the next macro.
#pragma once

#include <stdexcept>

#include "smst/runtime/flat/program.h"

namespace smst {

// The inbox of a state machine's first run (Start, Begin): nothing has
// been delivered yet.
inline const InboxBatch kFlatNoInbox;

// What every flat switch's `default:` throws: no case label set this pc.
inline std::logic_error FlatCorruptPc() {
  return std::logic_error("flat program: corrupt pc");
}

}  // namespace smst

// One awake round: push the round's sends first, then suspend until
// `round_expr` comes due; the next Step re-enters just after.
#define SMST_FLAT_AWAKE(st, round_expr) \
  (st).pc = __LINE__;                   \
  return (round_expr);                  \
  case __LINE__:;

// Run a flat sub-procedure (sleeping/flat_procedures.h) to completion,
// forwarding each of its awake rounds as our own. `begin_call` is
// evaluated once; resumes go through `(st).sub.Resume(node, inbox,
// sends)`. `r_` is deliberately uninitialized: the case label jumps over
// its declaration, which is only legal for vacuous initialization.
#define SMST_FLAT_SUB(st, sub, begin_call)   \
  {                                          \
    ::smst::Round r_;                        \
    r_ = (begin_call);                       \
    while (r_ != ::smst::kFlatDone) {        \
      (st).pc = __LINE__;                    \
      return r_;                             \
      case __LINE__:                         \
        r_ = (st).sub.Resume(node, inbox, sends); \
    }                                        \
  }
