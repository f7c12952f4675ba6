#include "layers.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "smst/runtime/flat/program.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/procedures.h"
#include "smst/sleeping/schedule.h"

namespace smst::perfbench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Above every toolbox and algorithm tag, so a replayed message can never
// be mistaken for protocol traffic.
constexpr std::uint16_t kReplayTag = 900;

// -------------------------------------------------------------- replay

// Node v's recorded wakes, and its recorded message count spread as
// evenly as integer division allows over them: wake k sends
// floor((k+1)m/w) - floor(km/w) messages on consecutive ports. A node
// sends at most one message per port per awake round, so m <= w*degree
// and no wake needs more ports than the node has.
struct ReplayPlan {
  const WeightedGraph* g = nullptr;
  const std::vector<std::vector<std::uint64_t>>* wakes = nullptr;
  const std::vector<NodeMetrics>* meters = nullptr;

  void Sends(NodeIndex v, std::size_t k, SendBatch& sends) const {
    const std::uint64_t w = (*wakes)[v].size();
    const std::uint64_t m = (*meters)[v].messages_sent;
    const std::uint64_t lo = k * m / w;
    const std::uint64_t hi = (k + 1) * m / w;
    const std::uint64_t degree = g->DegreeOf(v);
    const std::uint64_t count = std::min(hi - lo, degree);
    for (std::uint64_t j = 0; j < count; ++j) {
      sends.push_back({static_cast<std::uint32_t>((lo + j) % degree),
                       Message{kReplayTag, k, 0, 0}});
    }
  }
};

[[noreturn]] void ThrowOffSchedule(NodeIndex v, Round want, Round got) {
  throw std::logic_error("replay: node " + std::to_string(v) +
                         " woke in round " + std::to_string(got) +
                         ", recorded " + std::to_string(want));
}

class FlatReplayProgram final : public FlatProgram {
 public:
  explicit FlatReplayProgram(const ReplayPlan& plan)
      : plan_(plan), next_(plan.wakes->size(), 0) {}

  Round Start(NodeIndex v, FlatEnv&, SendBatch& sends) override {
    const auto& wakes = (*plan_.wakes)[v];
    if (wakes.empty()) return kFlatDone;
    plan_.Sends(v, 0, sends);
    return wakes[0];
  }

  Round Step(NodeIndex v, Round now, FlatEnv&, const InboxBatch&,
             SendBatch& sends) override {
    const auto& wakes = (*plan_.wakes)[v];
    std::size_t& k = next_[v];
    if (now != wakes[k]) ThrowOffSchedule(v, wakes[k], now);
    if (++k == wakes.size()) return kFlatDone;
    plan_.Sends(v, k, sends);
    return wakes[k];
  }

 private:
  ReplayPlan plan_;
  std::vector<std::size_t> next_;  // per node: index of its pending wake
};

Task<void> ReplayNode(NodeContext& ctx, const ReplayPlan* plan) {
  const NodeIndex v = ctx.Index();
  const std::vector<std::uint64_t>* wakes = &(*plan->wakes)[v];
  for (std::size_t k = 0; k < wakes->size(); ++k) {
    SendBatch sends;
    plan->Sends(v, k, sends);
    co_await ctx.Awake((*wakes)[k], std::move(sends));
    if (ctx.CurrentRound() != (*wakes)[k]) {
      ThrowOffSchedule(v, (*wakes)[k], ctx.CurrentRound());
    }
  }
}

// ---------------------------------------------------------- procedures

const Message kRootMessage{kTagBroadcast, 7, 0, 0};
const Message kSideMessage{kTagSide, 1, 0, 0};

// Every node's output of the procedure under test.
struct ProcedureOutputs {
  explicit ProcedureOutputs(std::size_t n)
      : broadcast(n), upcast_min(n), upcast_sum(n), received(n, 0) {}
  std::vector<Message> broadcast;
  std::vector<UpcastItem> upcast_min;
  std::vector<std::uint64_t> upcast_sum;
  std::vector<std::size_t> received;
};

Task<void> ProcedureNode(NodeContext& ctx, const std::vector<LdtState>* ldt,
                         Procedure p, ProcedureOutputs* out) {
  const NodeIndex v = ctx.Index();
  const LdtState& l = (*ldt)[v];
  switch (p) {
    case Procedure::kBroadcast:
      out->broadcast[v] = co_await FragmentBroadcast(ctx, l, 1, kRootMessage);
      break;
    case Procedure::kUpcastMin:
      out->upcast_min[v] =
          co_await UpcastMin(ctx, l, 1, UpcastItem{ctx.Id(), 0, 0});
      break;
    case Procedure::kUpcastSum:
      out->upcast_sum[v] = (co_await UpcastSum(ctx, l, 1, 1)).subtree_total;
      break;
    case Procedure::kTransmitAdjacent:
      out->received[v] =
          (co_await TransmitAdjacent(ctx, l, 1, ToAllPorts(ctx, kSideMessage)))
              .size();
      break;
  }
}

// The flat twins of ProcedureNode. procedures.h's Transmit-Adjacent is a
// single wake in the block's Side round, so its lowering is written here.
class FlatProcedureProgram final : public FlatProgram {
 public:
  FlatProcedureProgram(const WeightedGraph& g,
                       const std::vector<LdtState>& ldt, Procedure p,
                       ProcedureOutputs* out)
      : g_(&g), ldt_(&ldt), p_(p), out_(out) {
    const std::size_t n = g.NumNodes();
    if (p == Procedure::kBroadcast) bcast_.resize(n);
    if (p == Procedure::kUpcastMin) umin_.resize(n);
    if (p == Procedure::kUpcastSum) usum_.resize(n);
  }

  Round Start(NodeIndex v, FlatEnv&, SendBatch& sends) override {
    const FlatNodeRef node{g_, v};
    const LdtState& l = (*ldt_)[v];
    switch (p_) {
      case Procedure::kBroadcast:
        return Finish(v, bcast_[v].Begin(node, l, 1, kRootMessage, sends));
      case Procedure::kUpcastMin:
        return Finish(v, umin_[v].Begin(node, l, 1,
                                        UpcastItem{node.Id(), 0, 0}, sends));
      case Procedure::kUpcastSum:
        return Finish(v, usum_[v].Begin(node, l, 1, 1, sends));
      case Procedure::kTransmitAdjacent:
        for (std::uint32_t port = 0; port < node.Degree(); ++port) {
          sends.push_back({port, kSideMessage});
        }
        return TransmissionSchedule(1, l.level, node.NumNodesKnown()).side;
    }
    return kFlatDone;
  }

  Round Step(NodeIndex v, Round, FlatEnv&, const InboxBatch& inbox,
             SendBatch& sends) override {
    const FlatNodeRef node{g_, v};
    switch (p_) {
      case Procedure::kBroadcast:
        return Finish(v, bcast_[v].Resume(node, inbox, sends));
      case Procedure::kUpcastMin:
        return Finish(v, umin_[v].Resume(node, inbox, sends));
      case Procedure::kUpcastSum:
        return Finish(v, usum_[v].Resume(node, inbox, sends));
      case Procedure::kTransmitAdjacent:
        out_->received[v] = inbox.size();
        return kFlatDone;
    }
    return kFlatDone;
  }

 private:
  Round Finish(NodeIndex v, Round r) {
    if (r != kFlatDone) return r;
    switch (p_) {
      case Procedure::kBroadcast: out_->broadcast[v] = bcast_[v].msg; break;
      case Procedure::kUpcastMin: out_->upcast_min[v] = umin_[v].best; break;
      case Procedure::kUpcastSum:
        out_->upcast_sum[v] = usum_[v].result.subtree_total;
        break;
      case Procedure::kTransmitAdjacent: break;
    }
    return kFlatDone;
  }

  const WeightedGraph* g_;
  const std::vector<LdtState>* ldt_;
  Procedure p_;
  ProcedureOutputs* out_;
  std::vector<FlatBroadcast> bcast_;
  std::vector<FlatUpcastMin> umin_;
  std::vector<FlatUpcastSum> usum_;
};

// The final LDT spans the graph as one fragment, so the root sees the
// whole graph: the minimum ID, n as the sum, and every node hears the
// root's message and all of its neighbors.
std::string CheckProcedure(const WeightedGraph& g,
                           const std::vector<LdtState>& ldt, Procedure p,
                           const ProcedureOutputs& out) {
  const std::size_t n = g.NumNodes();
  NodeIndex root = kInvalidNode;
  NodeId min_id = g.IdOf(0);
  for (NodeIndex v = 0; v < n; ++v) {
    min_id = std::min(min_id, g.IdOf(v));
    if (!ldt[v].IsRoot()) continue;
    if (root != kInvalidNode) return "final LDT has more than one fragment";
    root = v;
  }
  if (root == kInvalidNode) return "final LDT has no root";
  for (NodeIndex v = 0; v < n; ++v) {
    if (p == Procedure::kBroadcast && !(out.broadcast[v] == kRootMessage)) {
      return "broadcast missed node " + std::to_string(v);
    }
    if (p == Procedure::kTransmitAdjacent &&
        out.received[v] != g.DegreeOf(v)) {
      return "transmit-adjacent: node " + std::to_string(v) + " heard " +
             std::to_string(out.received[v]) + " of its neighbors";
    }
  }
  if (p == Procedure::kUpcastMin && out.upcast_min[root].key != min_id) {
    return "upcast-min: root holds " +
           std::to_string(out.upcast_min[root].key);
  }
  if (p == Procedure::kUpcastSum && out.upcast_sum[root] != n) {
    return "upcast-sum: root holds " + std::to_string(out.upcast_sum[root]);
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------- wake shape

const std::array<const char*, WakeShape::kBuckets> WakeShape::kBucketNames = {
    "1", "2-15", "16-255", "256..n-1", "n"};

std::uint64_t WakeShape::ActiveRounds() const {
  std::uint64_t s = 0;
  for (auto c : active_rounds) s += c;
  return s;
}

std::uint64_t WakeShape::AwakeNodeRounds() const {
  std::uint64_t s = 0;
  for (auto c : awake_node_rounds) s += c;
  return s;
}

void WakeShape::Add(const WakeShape& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    active_rounds[b] += other.active_rounds[b];
    awake_node_rounds[b] += other.awake_node_rounds[b];
  }
}

WakeShape MeasureWakeShape(
    std::size_t n, const std::vector<std::vector<std::uint64_t>>& wake_times) {
  std::vector<std::uint64_t> rounds;
  for (const auto& w : wake_times) rounds.insert(rounds.end(), w.begin(), w.end());
  std::sort(rounds.begin(), rounds.end());
  WakeShape shape;
  for (std::size_t i = 0; i < rounds.size();) {
    std::size_t j = i;
    while (j < rounds.size() && rounds[j] == rounds[i]) ++j;
    const std::size_t awake = j - i;
    const std::size_t bucket = awake == n      ? 4
                               : awake >= 256 ? 3
                               : awake >= 16  ? 2
                               : awake >= 2   ? 1
                                              : 0;
    ++shape.active_rounds[bucket];
    shape.awake_node_rounds[bucket] += awake;
    i = j;
  }
  return shape;
}

// ------------------------------------------------------------ public

ReplayResult ReplayWakeShape(const WeightedGraph& g,
                             const MstRunResult& recorded,
                             const SimulatorOptions& options) {
  if (recorded.wake_times.size() != g.NumNodes()) {
    throw std::invalid_argument("replay needs the run's recorded wake times");
  }
  const ReplayPlan plan{&g, &recorded.wake_times, &recorded.node_metrics};
  SimulatorOptions opt = options;
  opt.record_wake_times = false;
  Simulator sim(g, opt);
  ReplayResult result;
  const auto t0 = std::chrono::steady_clock::now();
  if (opt.engine == EngineMode::kFlat) {
    FlatReplayProgram program(plan);
    sim.Run(program);
  } else {
    sim.Run([&plan](NodeContext& ctx) { return ReplayNode(ctx, &plan); });
  }
  result.seconds = SecondsSince(t0);
  result.stats = sim.Stats();
  return result;
}

const char* ProcedureName(Procedure p) {
  switch (p) {
    case Procedure::kBroadcast: return "broadcast";
    case Procedure::kUpcastMin: return "upcast_min";
    case Procedure::kUpcastSum: return "upcast_sum";
    case Procedure::kTransmitAdjacent: return "transmit_adjacent";
  }
  return "?";
}

ProcedureResult RunProcedure(const WeightedGraph& g,
                             const std::vector<LdtState>& ldt, Procedure p,
                             const SimulatorOptions& options) {
  if (ldt.size() != g.NumNodes()) {
    throw std::invalid_argument("procedure needs one LDT state per node");
  }
  ProcedureOutputs out(g.NumNodes());
  SimulatorOptions opt = options;
  opt.record_wake_times = false;
  Simulator sim(g, opt);
  ProcedureResult result;
  const auto t0 = std::chrono::steady_clock::now();
  if (opt.engine == EngineMode::kFlat) {
    FlatProcedureProgram program(g, ldt, p, &out);
    sim.Run(program);
  } else {
    sim.Run([&ldt, p, &out](NodeContext& ctx) {
      return ProcedureNode(ctx, &ldt, p, &out);
    });
  }
  result.seconds = SecondsSince(t0);
  result.max_wakes = sim.Stats().max_awake;
  result.error = CheckProcedure(g, ldt, p, out);
  return result;
}

}  // namespace smst::perfbench
