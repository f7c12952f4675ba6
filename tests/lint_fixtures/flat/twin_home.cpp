// smst_lint fixture: a twin directive is resolved in its own file. This
// file defines the flat class and its drifting directive; twin_copy.cpp
// repeats the directive without the class. The drift is reported once,
// here, and the copy is reported as a directive that checks nothing.
// Lint input only — never compiled.

namespace fixture {

template <typename T>
struct Task {};
struct Frame;
struct Ctx;
struct Awaiter {};

Awaiter Tick(Ctx& ctx);
void Send(int tag);

// The coroutine gained an acknowledgement the flat lowering never sends.
// smst-lint-twin(FlatRelay=RelayWave)   <- flat-twin-drift fires here
struct FlatRelay {
  int Start(Frame& fr) {
    Send(kTagRelayDown);
    return 1;
  }
};

Task<int> RelayWave(Ctx& ctx) {
  Send(kTagRelayDown);
  Send(kTagRelayAck);
  co_await Tick(ctx);
  co_return 0;
}

}  // namespace fixture
