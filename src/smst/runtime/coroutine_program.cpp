#include "smst/runtime/coroutine_program.h"

#include <stdexcept>
#include <string>

namespace smst {

CoroutineProgram::CoroutineProgram(const WeightedGraph& graph,
                                   const NodeProgram& program,
                                   Metrics& metrics, std::uint64_t seed,
                                   const ShardPartition* partition,
                                   std::uint32_t shard)
    : partition_(partition) {
  Xoshiro256 root_rng(seed);
  const auto spawn = [&](NodeIndex v) {
    contexts_.emplace_back(graph, v, mailbox_, metrics, root_rng.Split(v));
  };
  if (partition != nullptr) {
    for (const NodeIndex v : partition->NodesOf(shard)) spawn(v);
  } else {
    for (NodeIndex v = 0; v < graph.NumNodes(); ++v) spawn(v);
  }
  runners_.reserve(contexts_.size());
  for (NodeContext& ctx : contexts_) runners_.emplace_back(program(ctx));
  frames_.resize(contexts_.size());
}

Round CoroutineProgram::Start(NodeIndex v, FlatEnv&, SendBatch& sends) {
  const std::size_t i = Local(v);
  mailbox_.sends = &sends;
  mailbox_.suspended = {};
  runners_[i].Start();
  return Outcome(i);
}

Round CoroutineProgram::Step(NodeIndex v, Round now, FlatEnv&,
                             const InboxBatch& inbox, SendBatch& sends) {
  const std::size_t i = Local(v);
  mailbox_.now = now;
  mailbox_.inbox = &inbox;
  mailbox_.sends = &sends;
  mailbox_.suspended = {};
  frames_[i].resume();
  return Outcome(i);
}

Round CoroutineProgram::Outcome(std::size_t i) {
  // Control comes back here either from an Awake suspension or from the
  // top-level task's final suspend: no need to touch the task's frame
  // to tell which.
  frames_[i] = mailbox_.suspended;
  if (!frames_[i]) {
    runners_[i].RethrowIfFailed();
    return kFlatDone;
  }
  if (mailbox_.next == kFlatDone) {
    // Round 0 is the flat form's "finished"; as a wake request it is
    // simply not after the clock.
    throw std::logic_error("node " + std::to_string(contexts_[i].Index()) +
                           " requested awake round 0 but the clock is "
                           "already at " + std::to_string(mailbox_.now));
  }
  return mailbox_.next;
}

}  // namespace smst
