#include "smst/runtime/sharded/engine.h"

#include <thread>

#include "smst/faults/auditor.h"

namespace smst {

namespace {

Metrics ShardMetrics(std::size_t num_nodes, bool record_wake_times) {
  Metrics metrics(num_nodes);
  if (record_wake_times) metrics.EnableWakeTimes();
  return metrics;
}

}  // namespace

ShardedEngine::Shard::Shard(const WeightedGraph& graph,
                            const SimulatorOptions& options, bool audit,
                            const ShardPartition& partition, std::uint32_t s,
                            FlatSlots& slots)
    : metrics(ShardMetrics(graph.NumNodes(), options.record_wake_times)),
      auditor(audit ? std::make_unique<Auditor>(graph) : nullptr),
      core(graph, metrics,
           FlatEngine::Options{options.max_rounds, options.fault_plan,
                               options.seed, auditor.get(), {}},
           &partition, s, &slots),
      outbox(partition.NumShards()),
      streams(partition.NumShards()) {}

ShardedEngine::ShardedEngine(const WeightedGraph& graph,
                             const SimulatorOptions& options, bool audit,
                             Metrics& metrics)
    : graph_(graph),
      options_(options),
      audit_(audit),
      metrics_(metrics),
      partition_(graph.NumNodes(), options.shards, options.shard_policy),
      slots_(graph) {
  const std::uint32_t k = partition_.NumShards();
  // Slots only; each worker constructs its own Shard in ShardMain so
  // the per-shard O(n) state is built in parallel, owner-thread-local.
  shards_.resize(k);
  errors_.resize(k);
  next_round_.assign(k, kMaxRound);
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::Execute(const NodeProgram* coro, FlatProgram* flat) {
  const std::uint32_t k = partition_.NumShards();
  barrier_.emplace(static_cast<std::ptrdiff_t>(k), RoundReduce{this});

  std::vector<std::thread> workers;
  workers.reserve(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    workers.emplace_back([this, s, coro, flat] { ShardMain(s, coro, flat); });
  }
  for (std::thread& t : workers) t.join();

  // Merge in fixed shard order so the result is a pure function of the
  // per-shard states: every counter is a sum, round and message-bit
  // peaks are maxima, probes are key-summed, wake times are owner-only.
  for (const auto& shard : shards_) {
    if (!shard) continue;  // failed before constructing; see errors_
    metrics_.MergeFrom(shard->metrics);
    merged_faults_.MergeFrom(shard->core.InjectedFaults());
  }
  // Shard-level failures (watchdog, allocation failure) rethrow
  // lowest-shard-first — deterministic, and for the watchdog identical on
  // every shard anyway.
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void ShardedEngine::ShardMain(std::uint32_t s, const NodeProgram* coro,
                              FlatProgram* flat) {
  try {
    RunShard(s, coro, flat);
  } catch (...) {
    errors_[s] = std::current_exception();
    // Release the others: the drop counts as this shard's arrival for
    // the phase it abandoned, and the flag (published before the drop)
    // tells them to stop at their next barrier exit.
    abort_.store(true, std::memory_order_release);
    barrier_->arrive_and_drop();
  }
  // Clean stop or abort alike: the merged meters must be complete.
  if (shards_[s]) shards_[s]->core.FoldMetrics();
}

void ShardedEngine::RunShard(std::uint32_t s, const NodeProgram* coro,
                             FlatProgram* flat) {
  // Build this shard's state — and, for coroutine runs, spawn its node
  // programs — on the worker thread itself: the metrics and core lanes,
  // the contexts, and the coroutine frames are then allocated (and
  // first-touched) by the thread that will use them, and the K shards
  // set up in parallel.
  shards_[s] = std::make_unique<Shard>(graph_, options_, audit_, partition_,
                                       s, slots_);
  Shard& shard = *shards_[s];
  shard.cross_ports.assign(graph_.NumNodes(), 0);
  for (const NodeIndex v : partition_.NodesOf(s)) {
    for (const Port& port : graph_.PortsOf(v)) {
      if (partition_.Owner(port.neighbor) != s) {
        shard.cross_ports[v] = 1;
        break;
      }
    }
  }
  if (coro != nullptr) {
    shard.coroutines = std::make_unique<CoroutineProgram>(
        graph_, *coro, shard.metrics, options_.seed, &partition_, s);
    flat = shard.coroutines.get();
  }
  FlatEngine& core = shard.core;
  core.StartAll(*flat);
  for (;;) {
    next_round_[s] = core.NextPendingRound();
    barrier_->arrive_and_wait();  // completion computes global_round_
    if (abort_.load(std::memory_order_acquire)) return;
    const Round r = global_round_;
    if (r == kMaxRound) break;  // every shard idle: clean stop
    core.CheckWatchdog(r);      // trips identically on every shard
    core.StageRound(r);         // possibly zero local nodes
    CollectSends(s);
    barrier_->arrive_and_wait();  // all sends published
    if (abort_.load(std::memory_order_acquire)) return;
    ReceiveAndDeliver(s);
    core.StepStaged(*flat);
  }
  // Clean stop: expire still-parked delayed messages so the model-drop
  // books balance (mirrors the serial end-of-run drain).
  core.DrainDelayed(kMaxRound);
}

void ShardedEngine::CollectSends(std::uint32_t s) {
  // Pre-barrier half of the round: meter, judge and publish the
  // *cross-shard* sends. Shard-local sends are handled entirely by the
  // post-barrier scan, where they interleave with remote arrivals in
  // canonical source order; each send is metered and judged exactly
  // once, in the phase that routes it. Metrics are commutative sums and
  // the auditor's books are order-free within a round, so the split
  // cannot change any total.
  Shard& shard = *shards_[s];
  for (std::vector<WireEntry>& out : shard.outbox) out.clear();
  FlatEngine& core = shard.core;
  const Round r = core.CurrentRound();
  const std::vector<NodeIndex>& staged = core.Staged();
  for (std::size_t wi = 0; wi < staged.size(); ++wi) {
    const NodeIndex v = staged[wi];
    if (!shard.cross_ports[v]) continue;  // all ports internal
    const SendBatch& sends = slots_.sends[v];
    const Port* ports = graph_.PortsOf(v).data();
    const std::uint32_t* reverse = slots_.ReversePorts(v);
    for (std::uint32_t bp = 0; bp < sends.size(); ++bp) {
      const OutMessage& out = sends[bp];
      const NodeIndex dst = ports[out.port].neighbor;
      const std::uint32_t to = partition_.Owner(dst);
      if (to == s) continue;  // metered and delivered post-barrier
      const FaultSession::MessageVerdict verdict = core.Judge(v, out, wi);
      if (verdict.drop) continue;
      // A delayed entry carries its absolute due round; the receiving
      // core parks it. A duplicate is one extra adjacent copy, fresh or
      // delayed alongside its original — exactly the serial behaviour.
      WireEntry e{v,
                  dst,
                  reverse[out.port],
                  bp,
                  verdict.delay != 0 ? r + verdict.delay : 0,
                  r,
                  /*copy=*/0,
                  out.msg};
      std::vector<WireEntry>& outbox = shard.outbox[to];
      outbox.push_back(e);
      if (verdict.duplicate) {
        e.copy = 1;
        outbox.push_back(e);
      }
    }
  }
}

void ShardedEngine::ReceiveAndDeliver(std::uint32_t s) {
  Shard& shard = *shards_[s];
  FlatEngine& core = shard.core;

  // Late arrivals first, exactly like the serial round: delayed messages
  // parked here fall due before this round's fresh sends, in canonical
  // key order.
  core.DrainDelayed(core.CurrentRound());

  // Read the outboxes addressed to this shard in place (a shard's own
  // outbox to itself stays empty: local sends are delivered below). Each
  // producer appended in ascending (src, batch_pos, copy) order and
  // shards own disjoint node sets, so stepping local senders and remote
  // stream heads by minimum source reproduces the serial delivery loop's
  // global order exactly.
  const std::uint32_t k = partition_.NumShards();
  std::vector<Shard::Stream>& streams = shard.streams;
  for (std::uint32_t from = 0; from < k; ++from) {
    const std::vector<WireEntry>& in = shards_[from]->outbox[s];
    streams[from] = {in.data(), in.data() + in.size()};
  }
  const std::vector<NodeIndex>& staged = core.Staged();
  std::size_t wi = 0;  // next local sender in staged
  for (;;) {
    Shard::Stream* pick = nullptr;
    for (Shard::Stream& in : streams) {
      if (in.next != in.end && (pick == nullptr || in.next->src < pick->next->src)) {
        pick = &in;
      }
    }
    if (wi < staged.size() &&
        (pick == nullptr || staged[wi] < pick->next->src)) {
      core.DeliverFrom(staged[wi], wi);
      ++wi;
      continue;
    }
    if (pick == nullptr) break;
    core.Receive(*pick->next++);
  }
}

std::uint64_t ShardedEngine::CountUnfinished() const {
  std::uint64_t unfinished = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    // A shard that failed before constructing left every node unfinished.
    unfinished += shards_[s] ? shards_[s]->core.CountUnfinished()
                             : partition_.NodesOf(s).size();
  }
  return unfinished;
}

NodeIndex ShardedEngine::FirstUnfinishedNode() const {
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    const Shard* shard = shards_[partition_.Owner(v)].get();
    if (shard == nullptr || !shard->core.Done(v)) return v;
  }
  return kInvalidNode;
}

void ShardedEngine::RethrowFirstNodeFailure() const {
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    const Shard* shard = shards_[partition_.Owner(v)].get();
    if (shard != nullptr) shard->core.RethrowIfFailed(v);
  }
}

Simulator::AuditSummary ShardedEngine::CheckAudit() {
  Simulator::AuditSummary summary;
  for (const auto& shard : shards_) {
    if (shard && shard->auditor) summary.Add(*shard->auditor, shard->metrics);
  }
  return summary;
}

}  // namespace smst
