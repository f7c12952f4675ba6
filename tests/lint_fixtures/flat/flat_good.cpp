// smst_lint fixture: flat-lowering look-alikes that must NOT be flagged.
// Lint input only — never compiled.

namespace fixture {

struct Frame {
  int pc = 0;
  int phase = 0;
  int saved = 0;
};

// The canonical shape: a case 0 entry, a default that throws, every
// state span ends in a terminator, and values that cross a resume point
// live in the frame, not on the stack.
int WellFormedResume(Frame& fr) {
  switch (fr.pc) {
    default:
      throw fr.pc;
    case 0: {
      int scratch = fr.phase + 1;  // consumed before the resume point
      fr.saved = scratch;
      SMST_FLAT_AWAKE(fr, 1);
      return 1;
    }
    case 1:
      return fr.saved;  // persisted in the frame: fine
  }
}

// A product on the right of an assignment is not a pointer declaration:
// `block_len` is a member, so reading it after the resume point is fine.
struct StageWalk {
  int pc = 0;
  int base = 0;
  int stage = 0;
  int block_len = 0;
  int s0 = 0;

  int Resume();
};

int StageWalk::Resume() {
  switch (pc) {
    default:
      throw pc;
    case 0:
      s0 = base + (stage - 1) * kColoringBlocksPerStage * block_len;
      SMST_FLAT_AWAKE(*this, s0);
      return s0 + block_len;
  }
}

// A plain dispatch switch (no resume macro in the body) is not a flat
// state machine; entry/default/fallthrough rules do not apply.
int PlainDispatch(int op) {
  switch (op) {
    case 1:
      op += 1;
    case 2:
      return op;
  }
  return 0;
}

}  // namespace fixture
