// Coroutine node programs as one more FlatProgram form.
//
// The constructor spawns the node program on every owned node — all
// contexts first, then all tasks, so every frame exists before any node
// runs. Start/Step then resume node v's suspended frame (the innermost
// one, however deeply procedures nest). The frame runs to its next
// `co_await ctx.Awake(r, sends)`, whose awaiter moves `r` and the sends
// straight into the engine's slot for v (node.h's AwakeMailbox), and
// control returns to the engine: Start/Step return `r`, or kFlatDone once
// the task has finished — rethrowing the task's exception, so a failed
// coroutine marks its node failed exactly like a throwing flat program.
//
// One instance serves the nodes of one engine core (the sharded engine
// builds one per shard on that shard's worker thread) and owns the frame
// pool its frames come from (frame_pool.h): it installs the pool while it
// spawns and resumes frames, and the pool's slabs go with the instance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/frame_pool.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/node.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/task.h"

namespace smst {

// A node program: the algorithm one node runs. Must eventually finish.
using NodeProgram = std::function<Task<void>(NodeContext&)>;

class CoroutineProgram final : public FlatProgram {
 public:
  // Spawns `program` on every node, or — with a partition — on the nodes
  // of `shard` only. Node v's randomness is Xoshiro256(seed).Split(v)
  // either way, so it never depends on the shard count.
  CoroutineProgram(const WeightedGraph& graph, const NodeProgram& program,
                   Metrics& metrics, std::uint64_t seed,
                   const ShardPartition* partition = nullptr,
                   std::uint32_t shard = 0);

  Round Start(NodeIndex v, FlatEnv& env, SendBatch& sends) override;
  Round Step(NodeIndex v, Round now, FlatEnv& env, const InboxBatch& inbox,
             SendBatch& sends) override;

 private:
  // After a resume: the round the frame's Awake asked for, or kFlatDone
  // (rethrowing the task's exception) if the task finished.
  Round Outcome(std::size_t i);
  std::size_t Local(NodeIndex v) const {
    return partition_ != nullptr ? partition_->LocalIndex(v) : v;
  }

  const ShardPartition* partition_;
  AwakeMailbox mailbox_;
  FramePool pool_;  // declared before the frames: destroyed after them
  // Contexts must be address-stable (frames hold references) and outlive
  // the tasks: one allocation of the owned-node count, filled in place.
  std::unique_ptr<std::optional<NodeContext>[]> contexts_;
  std::vector<TaskRunner> runners_;  // parallel to contexts_
  // The innermost frame each node is suspended in (resumed by Step).
  std::vector<std::coroutine_handle<>> frames_;
};

}  // namespace smst
