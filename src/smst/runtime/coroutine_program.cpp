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
  const std::size_t count = partition != nullptr
                                ? partition->NodesOf(shard).size()
                                : graph.NumNodes();
  contexts_ = std::make_unique<std::optional<NodeContext>[]>(count);
  Xoshiro256 root_rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeIndex v = partition != nullptr ? partition->NodesOf(shard)[i]
                                             : static_cast<NodeIndex>(i);
    contexts_[i].emplace(graph, v, mailbox_, metrics, root_rng.Split(v));
  }
  const FramePool::Scope scope(pool_);
  runners_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    runners_.emplace_back(program(*contexts_[i]));
  }
  frames_.resize(count);
}

Round CoroutineProgram::Start(NodeIndex v, FlatEnv&, SendBatch& sends) {
  const FramePool::Scope scope(pool_);
  const std::size_t i = Local(v);
  mailbox_.sends = &sends;
  mailbox_.suspended = {};
  runners_[i].Start();
  return Outcome(i);
}

Round CoroutineProgram::Step(NodeIndex v, Round now, FlatEnv&,
                             const InboxBatch& inbox, SendBatch& sends) {
  const FramePool::Scope scope(pool_);
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
    throw std::logic_error("node " + std::to_string(contexts_[i]->Index()) +
                           " requested awake round 0 but the clock is "
                           "already at " + std::to_string(mailbox_.now));
  }
  return mailbox_.next;
}

}  // namespace smst
