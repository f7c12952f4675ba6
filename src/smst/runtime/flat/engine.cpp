#include "smst/runtime/flat/engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "smst/faults/auditor.h"
#include "smst/faults/run_outcome.h"

namespace smst {

namespace {

// Heap order of parked messages: due round, then canonical identity.
struct DueLater {
  bool operator()(const WireEntry& a, const WireEntry& b) const {
    if (a.due != b.due) return a.due > b.due;
    if (a.birth_round != b.birth_round) return a.birth_round > b.birth_round;
    if (a.src != b.src) return a.src > b.src;
    if (a.batch_pos != b.batch_pos) return a.batch_pos > b.batch_pos;
    return a.copy > b.copy;
  }
};

}  // namespace

FlatSlots::FlatSlots(const WeightedGraph& graph)
    : port_offset(graph.NumNodes() + 1, 0),
      sends(graph.NumNodes()),
      inbox(graph.NumNodes()) {
  const NodeIndex n = graph.NumNodes();
  for (NodeIndex v = 0; v < n; ++v) {
    port_offset[v + 1] = port_offset[v] + graph.DegreeOf(v);
  }
  // edge -> (port index at edge.u, port index at edge.v), then flattened
  // into the per-(node, port) table.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_ports(
      graph.NumEdges());
  for (NodeIndex v = 0; v < n; ++v) {
    std::uint32_t port_index = 0;
    for (const Port& p : graph.PortsOf(v)) {
      if (graph.GetEdge(p.edge).u == v) edge_ports[p.edge].first = port_index;
      else edge_ports[p.edge].second = port_index;
      ++port_index;
    }
  }
  reverse_ports.resize(port_offset.back());
  for (NodeIndex v = 0; v < n; ++v) {
    std::uint32_t port_index = 0;
    for (const Port& p : graph.PortsOf(v)) {
      reverse_ports[port_offset[v] + port_index] =
          graph.GetEdge(p.edge).u == p.neighbor ? edge_ports[p.edge].first
                                                : edge_ports[p.edge].second;
      ++port_index;
    }
  }
}

FlatEngine::FlatEngine(const WeightedGraph& graph, Metrics& metrics,
                       Options options, const ShardPartition* partition,
                       std::uint32_t shard, FlatSlots* shared)
    : graph_(graph),
      metrics_(metrics),
      max_rounds_(options.max_rounds),
      faults_(options.fault_plan, options.run_seed, graph.NumNodes()),
      faulty_(faults_.Active()),
      auditor_(options.auditor),
      trace_(std::move(options.trace)),
      partition_(partition),
      shard_(shard),
      plain_(!faulty_ && auditor_ == nullptr && !trace_ &&
             partition == nullptr),
      wake_times_(metrics.WakeTimesEnabled()),
      own_slots_(shared == nullptr ? std::make_unique<FlatSlots>(graph)
                                   : nullptr),
      slots_(shared != nullptr ? *shared : *own_slots_),
      status_(graph.NumNodes(), Status::kRunning),
      errors_(graph.NumNodes()),
      stamp_(graph.NumNodes(), 0),
      acc_(graph.NumNodes()) {
  env_.metrics = &metrics_;
  if (partition != nullptr) {
    nodes_ = partition->NodesOf(shard);
  } else {
    nodes_.resize(graph.NumNodes());
    std::iota(nodes_.begin(), nodes_.end(), NodeIndex{0});
  }
  std::size_t max_degree = 0;
  for (const NodeIndex v : nodes_) {
    max_degree = std::max(max_degree, graph_.DegreeOf(v));
  }
  if (max_degree > 64) seen_ports_scratch_.resize((max_degree + 63) / 64);
}

// ------------------------------------------------------ registration --

void FlatEngine::ValidateSends(NodeIndex v, const SendBatch& sends) {
  // CONGEST: at most one message per port per round, on a port that
  // exists. In a fault-free run a double send is a programming bug
  // (logic_error, never classified); under an active adversary a
  // duplicated or delayed inbox can trick a correct protocol into
  // replying twice on one port, so it must stay classifiable
  // (runtime_error -> crashed-partition).
  const auto double_send = [this, v] {
    if (faulty_) {
      throw std::runtime_error("node " + std::to_string(v) +
                               " sent two messages on one port in one "
                               "round (fault-corrupted protocol state)");
    }
    throw std::logic_error("two messages on one port in one round");
  };
  const std::size_t degree = graph_.DegreeOf(v);
  if (degree <= 64) {
    std::uint64_t seen_ports = 0;
    for (const OutMessage& out : sends) {
      if (out.port >= degree) {
        throw std::logic_error("send on nonexistent port");
      }
      if (((seen_ports >> out.port) & 1) != 0) double_send();
      seen_ports |= std::uint64_t{1} << out.port;
    }
  } else {
    // The core-owned scratch bitset (sized to the max degree once)
    // instead of an allocation per awake.
    const std::size_t words = (degree + 63) / 64;
    std::fill_n(seen_ports_scratch_.begin(), words, 0);
    for (const OutMessage& out : sends) {
      if (out.port >= degree) {
        throw std::logic_error("send on nonexistent port");
      }
      std::uint64_t& word = seen_ports_scratch_[out.port / 64];
      const std::uint64_t bit = std::uint64_t{1} << (out.port % 64);
      if ((word & bit) != 0) double_send();
      word |= bit;
    }
  }
}

Round FlatEngine::Admit(NodeIndex v, Round r) {
  if (r == kFlatDone) {
    status_[v] = Status::kDone;
    slots_.sends[v].clear();
    return 0;
  }
  if (faulty_) {
    // Jitter may move the wake either way; clamping (rather than the
    // monotonicity throw below) keeps perturbed runs legal. A crash-stop
    // swallows the wake: the node stays pending forever, unqueued.
    r = faults_.PerturbWake(v, r, current_ + 1);
    if (faults_.SuppressWake(v, r)) return 0;
  } else if (r <= current_) {
    throw std::logic_error(
        "node " + std::to_string(v) + " requested awake round " +
        std::to_string(r) + " but the clock is already at " +
        std::to_string(current_));
  }
  ValidateSends(v, slots_.sends[v]);
  return r;
}

void FlatEngine::Register(NodeIndex v, Round r) {
  if (const Round queued = Admit(v, r)) PushRegistered(v, queued);
}

void FlatEngine::PushRegistered(NodeIndex v, Round r) {
  // The queued batch itself stays in the node's send slot; only the node
  // index goes into the round bucket.
  if (open_bucket_ != kNoBucket && open_round_ == r) {
    buckets_[open_bucket_].push_back(v);
    return;
  }
  std::uint32_t b;
  if (!free_buckets_.empty()) {
    b = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[b].push_back(v);
  heap_.push_back(QueueEntry{r, next_seq_++, b});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  open_round_ = r;
  open_bucket_ = b;
}

void FlatEngine::Fail(NodeIndex v) {
  slots_.inbox[v].clear();
  slots_.sends[v].clear();
  status_[v] = Status::kFailed;
  errors_[v] = std::current_exception();
}

// ------------------------------------------------------------ rounds --

void FlatEngine::StartAll(FlatProgram& program) {
  for (const NodeIndex v : nodes_) {
    SendBatch& sends = slots_.sends[v];
    sends.clear();
    try {
      Register(v, program.Start(v, env_, sends));
    } catch (...) {
      Fail(v);
    }
  }
}

Round FlatEngine::NextPendingRound() const {
  return heap_.empty() ? kMaxRound : heap_.front().round;
}

void FlatEngine::CheckWatchdog(Round r) const {
  if (r > max_rounds_) {
    throw NonTerminationError("round watchdog tripped at round " +
                              std::to_string(r) + " (max " +
                              std::to_string(max_rounds_) + ")");
  }
}

void FlatEngine::Run(FlatProgram& program) {
  StartAll(program);
  try {
    while (!heap_.empty()) {
      const Round r = heap_.front().round;
      CheckWatchdog(r);
      if (StageRound(r)) {
        FusedRound(program);
        continue;
      }
      // Late arrivals fall due before this round's fresh sends, so a
      // delayed and a fresh message reach an inbox in age order.
      if (!delayed_.empty()) DrainDelayed(r);
      for (std::size_t i = 0; i < staged_.size(); ++i) {
        if (plain_) DeliverPlain(staged_[i]);
        else DeliverFrom(staged_[i], i);
      }
      StepStaged(program);
    }
    // Messages still parked when every node is done (or crashed) can
    // never arrive; expire them so the model-drop books balance.
    if (!delayed_.empty()) DrainDelayed(kMaxRound);
  } catch (...) {
    // The watchdog throw must leave the meters exactly where a
    // metered-in-place run's would be.
    FoldMetrics();
    throw;
  }
  FoldMetrics();
}

bool FlatEngine::StageRound(Round r) {
  current_ = r;
  metrics_.SetLastRound(r);
  // Splice round-r buckets into the canonical ascending order (§7);
  // steps queue only strictly later rounds, so the heap front is stable.
  // Sortedness is checked while splicing: steps run ascending, so the
  // dominant shape — every round-r node in one bucket — skips the sort.
  // (Copying rather than swapping bucket buffers keeps each bucket's
  // retained capacity at what that bucket itself ever held.)
  staged_.clear();
  bool sorted = true;
  while (!heap_.empty() && heap_.front().round == r) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    std::vector<NodeIndex>& bucket = buckets_[heap_.back().bucket];
    for (const NodeIndex v : bucket) {
      if (!staged_.empty() && v < staged_.back()) sorted = false;
      staged_.push_back(v);
    }
    bucket.clear();
    if (open_bucket_ == heap_.back().bucket) open_bucket_ = kNoBucket;
    free_buckets_.push_back(heap_.back().bucket);
    heap_.pop_back();
  }
  if (!sorted) std::sort(staged_.begin(), staged_.end());

  // All-awake and unobserved: every delivery lands on a staged receiver
  // by construction, so no stamps are needed.
  if (plain_ && staged_.size() == graph_.NumNodes()) return true;
  for (const NodeIndex v : staged_) {
    stamp_[v] = r;
    if (auditor_) auditor_->OnAwake(r, v);
  }
  if (trace_) round_trace_.assign(staged_.size(), TraceCounts{});
  return false;
}

void FlatEngine::DrainDelayed(Round r) {
  while (!delayed_.empty() && delayed_.front().due <= r) {
    std::pop_heap(delayed_.begin(), delayed_.end(), DueLater{});
    const WireEntry m = delayed_.back();
    delayed_.pop_back();
    if (m.due == r && stamp_[m.dst] == r) {
      // The receiver happens to be awake in the deferred round: the
      // message arrives late but intact.
      Land(m.src, m.dst, m.dst_port, m.msg);
      faults_.CountDelayedDelivered();
    } else {
      // Due round skipped or receiver asleep: sleeping-model loss,
      // charged to the sender like any other drop.
      ++metrics_.Node(m.src).messages_dropped;
      faults_.CountDelayedLost();
      if (auditor_) auditor_->OnDrop(m.due, m.src, /*injected=*/false);
    }
  }
}

void FlatEngine::Land(NodeIndex src, NodeIndex dst, std::uint32_t port,
                      const Message& msg) {
  slots_.inbox[dst].push_back(InMessage{port, msg});
  if (auditor_) auditor_->OnDeliver(current_, src, dst, msg);
}

void FlatEngine::Park(const WireEntry& m) {
  delayed_.push_back(m);
  std::push_heap(delayed_.begin(), delayed_.end(), DueLater{});
}

FaultSession::MessageVerdict FlatEngine::Judge(NodeIndex v,
                                               const OutMessage& out,
                                               std::size_t wi) {
  MeterAcc& acc = acc_[v];
  const std::uint64_t bits = out.msg.BitSize();
  ++acc.msgs;
  acc.bits += bits;
  if (bits > max_bits_seen_) max_bits_seen_ = bits;
  if (auditor_) auditor_->OnSend(current_, v, out.port, out.msg);
  if (!faulty_) return {};
  const FaultSession::MessageVerdict verdict =
      faults_.OnMessage(v, out.port, current_);
  if (verdict.drop) {
    // Adversary drop: distinct from the sleeping-model loss — it does
    // NOT count towards messages_dropped.
    if (TraceCounts* tc = TraceOf(wi)) ++tc->injected_drops;
    if (auditor_) auditor_->OnDrop(current_, v, /*injected=*/true);
  }
  return verdict;
}

void FlatEngine::DeliverFrom(NodeIndex v, std::size_t wi) {
  const Round r = current_;
  ++acc_[v].awake;
  if (wake_times_) metrics_.Node(v).wake_times.push_back(r);
  const SendBatch& sends = slots_.sends[v];
  const Port* ports = graph_.PortsOf(v).data();
  const std::uint32_t* reverse = slots_.ReversePorts(v);
  TraceCounts* tc = TraceOf(wi);
  for (std::uint32_t bp = 0; bp < sends.size(); ++bp) {
    const OutMessage& out = sends[bp];
    const NodeIndex dst = ports[out.port].neighbor;
    // A cross-shard send was metered and put on the wire pre-barrier.
    if (partition_ != nullptr && partition_->Owner(dst) != shard_) continue;
    const FaultSession::MessageVerdict verdict = Judge(v, out, wi);
    if (verdict.drop) continue;
    const std::uint32_t port = reverse[out.port];
    if (verdict.delay != 0) {
      // The duplicate of a delayed message is delayed alongside it.
      WireEntry m{v, dst, port, bp, r + verdict.delay, r, 0, out.msg};
      Park(m);
      if (tc) ++tc->injected_delays;
      if (verdict.duplicate) {
        m.copy = 1;
        Park(m);
        if (tc) ++tc->injected_dups;
      }
      continue;
    }
    if (stamp_[dst] != r) {
      // Sleeping-model loss; a fresh duplicate of it never materializes.
      ++acc_[v].drops;
      if (tc) ++tc->dropped;
      if (auditor_) auditor_->OnDrop(r, v, /*injected=*/false);
      continue;
    }
    Land(v, dst, port, out.msg);
    if (verdict.duplicate) {
      Land(v, dst, port, out.msg);
      if (tc) ++tc->injected_dups;
    }
  }
}

void FlatEngine::Receive(const WireEntry& e) {
  if (e.due != 0) {
    Park(e);
    return;
  }
  if (stamp_[e.dst] != current_) {
    // Sleeping-model loss, charged to the sender here, in the receiving
    // core's metrics (only this core knows the target slept); the merge
    // restores the per-node total. A fresh duplicate (copy 1) of a lost
    // send is never materialized serially, so it vanishes silently.
    if (e.copy == 0) {
      ++metrics_.Node(e.src).messages_dropped;
      if (auditor_) auditor_->OnDrop(current_, e.src, /*injected=*/false);
    }
    return;
  }
  Land(e.src, e.dst, e.dst_port, e.msg);
}

void FlatEngine::DeliverPlain(NodeIndex v) {
  const Round r = current_;
  MeterAcc& acc = acc_[v];
  ++acc.awake;
  if (wake_times_) metrics_.Node(v).wake_times.push_back(r);
  const SendBatch& sends = slots_.sends[v];
  if (sends.empty()) return;
  const OutMessage* out_begin = sends.data();
  const std::size_t out_count = sends.size();
  const Port* ports = graph_.PortsOf(v).data();
  const std::uint32_t* reverse = slots_.ReversePorts(v);
  InboxBatch* inbox = slots_.inbox.data();
  std::uint64_t bits_sum = 0;
  std::uint64_t dropped = 0;
  for (std::size_t j = 0; j < out_count; ++j) {
    // The scatter target (a neighbor's inbox header) is the one irregular
    // access in the sweep; fetching the next message's target while this
    // one is written hides most of its latency on high-degree nodes.
    if (j + 1 < out_count) {
      __builtin_prefetch(&inbox[ports[out_begin[j + 1].port].neighbor], 1);
    }
    const OutMessage& out = out_begin[j];
    const std::uint64_t bits = out.msg.BitSize();
    bits_sum += bits;
    if (bits > max_bits_seen_) max_bits_seen_ = bits;
    const NodeIndex neighbor = ports[out.port].neighbor;
    if (stamp_[neighbor] == r) {
      inbox[neighbor].push_back(InMessage{reverse[out.port], out.msg});
    } else {
      ++dropped;  // sleeping-model loss
    }
  }
  acc.msgs += out_count;
  acc.bits += bits_sum;
  acc.drops += dropped;
}

void FlatEngine::StepStaged(FlatProgram& program) {
  // The inbox slot is handed to Step directly (programs only read it) and
  // cleared afterwards; the send slot is reused round over round, so its
  // heap spill (if any) is allocated once.
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const NodeIndex v = staged_[i];
    SendBatch& sends = slots_.sends[v];
    InboxBatch& inbox = slots_.inbox[v];
    if (trace_) {
      const TraceCounts& tc = round_trace_[i];
      trace_(TraceEvent{current_, v, static_cast<std::uint32_t>(sends.size()),
                        static_cast<std::uint32_t>(inbox.size()), tc.dropped,
                        tc.injected_drops, tc.injected_delays,
                        tc.injected_dups});
    }
    sends.clear();
    try {
      const Round next = program.Step(v, current_, env_, inbox, sends);
      inbox.clear();
      Register(v, next);
    } catch (...) {
      Fail(v);
    }
  }
}

void FlatEngine::BuildFusedOrder() {
  const NodeIndex n = graph_.NumNodes();
  thresh_.resize(n);
  for (NodeIndex v = 0; v < n; ++v) {
    NodeIndex t = v;
    for (const Port& p : graph_.PortsOf(v)) {
      if (p.neighbor > t) t = p.neighbor;
    }
    thresh_[v] = t;
  }
  step_order_.resize(n);
  std::iota(step_order_.begin(), step_order_.end(), NodeIndex{0});
  // Ties step in ascending node order (stable over the iota), so the
  // fused step order is fully determined by the graph.
  std::stable_sort(step_order_.begin(), step_order_.end(),
                   [this](NodeIndex a, NodeIndex b) {
                     return thresh_[a] < thresh_[b];
                   });
  next_round_.assign(n, 0);
  fused_ready_ = true;
}

void FlatEngine::FusedRound(FlatProgram& program) {
  // staged_ is exactly 0..n-1, so the delivery cursor IS the sender id,
  // every send lands on an awake receiver, and node u's inbox is
  // complete — and its own send slot drained — once the cursor passes
  // thresh_[u]. Stepping it right then touches its slots while they are
  // still resident; on neighbor-local graphs the round's working set
  // collapses to a sliding window.
  if (!fused_ready_) BuildFusedOrder();
  const Round r = current_;
  const NodeIndex n = graph_.NumNodes();
  SendBatch* const send_slots = slots_.sends.data();
  InboxBatch* const inbox = slots_.inbox.data();
  std::size_t cursor = 0;  // into step_order_
  for (NodeIndex v = 0; v < n; ++v) {
    // Delivery for sender v: DeliverPlain's body without stamp probes.
    MeterAcc& acc = acc_[v];
    ++acc.awake;
    if (wake_times_) metrics_.Node(v).wake_times.push_back(r);
    const SendBatch& sends = send_slots[v];
    const std::size_t out_count = sends.size();
    if (out_count != 0) {
      const OutMessage* out_begin = sends.data();
      const Port* ports = graph_.PortsOf(v).data();
      const std::uint32_t* reverse = slots_.ReversePorts(v);
      std::uint64_t bits_sum = 0;
      for (std::size_t j = 0; j < out_count; ++j) {
        if (j + 1 < out_count) {
          __builtin_prefetch(&inbox[ports[out_begin[j + 1].port].neighbor],
                             1);
        }
        const OutMessage& out = out_begin[j];
        const std::uint64_t bits = out.msg.BitSize();
        bits_sum += bits;
        if (bits > max_bits_seen_) max_bits_seen_ = bits;
        inbox[ports[out.port].neighbor].push_back(
            InMessage{reverse[out.port], out.msg});
      }
      acc.msgs += out_count;
      acc.bits += bits_sum;
    }

    // Step every node whose threshold the cursor just passed. Register's
    // checks (Admit) run here, while the batch is hot; the bucket push is
    // deferred to the ascending pass below so staged order stays sorted.
    while (cursor < n && thresh_[step_order_[cursor]] <= v) {
      const NodeIndex u = step_order_[cursor++];
      SendBatch& out = send_slots[u];
      out.clear();
      next_round_[u] = 0;
      try {
        const Round next = program.Step(u, r, env_, inbox[u], out);
        inbox[u].clear();
        next_round_[u] = Admit(u, next);
      } catch (...) {
        Fail(u);
      }
    }
  }

  // Registration pass: ascending nodes, already-validated batches.
  for (NodeIndex v = 0; v < n; ++v) {
    if (next_round_[v] != 0) PushRegistered(v, next_round_[v]);
  }
}

void FlatEngine::FoldMetrics() {
  for (const NodeIndex v : nodes_) {
    MeterAcc& acc = acc_[v];
    if (acc.awake == 0 && acc.msgs == 0) continue;
    NodeMetrics& nm = metrics_.Node(v);
    nm.awake_rounds += acc.awake;
    nm.messages_sent += acc.msgs;
    nm.bits_sent += acc.bits;
    nm.messages_dropped += acc.drops;
    acc = MeterAcc{};
  }
  if (max_bits_seen_ > 0) {
    metrics_.RecordMessageBits(max_bits_seen_);
    max_bits_seen_ = 0;
  }
}

// ------------------------------------------------------------ status --

void FlatEngine::RethrowIfFailed(NodeIndex v) const {
  if (errors_[v]) std::rethrow_exception(errors_[v]);
}

std::uint64_t FlatEngine::CountUnfinished() const {
  std::uint64_t unfinished = 0;
  for (const NodeIndex v : nodes_) {
    if (!Done(v)) ++unfinished;
  }
  return unfinished;
}

NodeIndex FlatEngine::FirstUnfinishedNode() const {
  for (const NodeIndex v : nodes_) {
    if (!Done(v)) return v;
  }
  return kInvalidNode;
}

void FlatEngine::RethrowFirstFailure() const {
  for (const NodeIndex v : nodes_) RethrowIfFailed(v);
}

}  // namespace smst
