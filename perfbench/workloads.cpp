#include "workloads.h"

#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/graph/mst_verify.h"
#include "smst/graph/properties.h"
#include "smst/util/prng.h"

namespace smst::perfbench {
namespace {

using A = MstAlgorithm;

// Why each workload exists is in README.md. The graph counts are sized
// so one pass of the timed phase takes 5-20 s on a 4-core x86 host and
// sums over enough graph draws that one draw's luck barely shows. A 50 s
// run repeats each cell 2 to 9 times.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "rand_sparse",
       .n = 16384,
       .algorithms = {A::kRandomized},
       .engine = EngineMode::kFlat,
       .graphs = 5,
       .setup_repeats = 3},
      {.name = "det_sleepy",
       .n = 2048,
       .algorithms = {A::kDeterministic},
       .engine = EngineMode::kFlat,
       .graphs = 24,
       .setup_repeats = 7,
       .traced_graphs = 12},
      {.name = "rand_sharded",
       .n = 16384,
       .algorithms = {A::kRandomized},
       .engine = EngineMode::kFlat,
       .shards = 2,
       .graphs = 5,
       .setup_repeats = 3},
      // Library-default options: the coroutine engine.
      {.name = "table1_mix",
       .n = 1024,
       .algorithms = {A::kRandomized, A::kDeterministic,
                      A::kDeterministicLogStar, A::kBmSpanningTree},
       .graphs = 6,
       .setup_repeats = 31,
       .traced_graphs = 3},
  };
  return kWorkloads;
}

// Independent streams for graph draws and run seeds.
constexpr std::uint64_t kGraphStream = 0x67726170685f7365ULL;
constexpr std::uint64_t kRunStream = 0x72756e5f73656564ULL;

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& w : Workloads()) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::vector<WeightedGraph> GenerateGraphs(const WorkloadSpec& w,
                                          std::uint64_t seed) {
  SplitMix64 seeds(seed ^ kGraphStream);
  std::vector<WeightedGraph> graphs;
  graphs.reserve(w.graphs);
  for (std::size_t i = 0; i < w.graphs; ++i) {
    Xoshiro256 rng(seeds.Next());
    graphs.push_back(
        MakeErdosRenyi(w.n, 8.0 / static_cast<double>(w.n), rng));
  }
  return graphs;
}

std::vector<Cell> MakeCells(const WorkloadSpec& w, std::uint64_t seed,
                            std::size_t graphs) {
  SplitMix64 seeds(seed ^ kRunStream);
  std::vector<Cell> cells;
  for (std::size_t gi = 0; gi < graphs; ++gi) {
    for (MstAlgorithm a : w.algorithms) {
      Cell c;
      c.graph = gi;
      c.algorithm = a;
      c.options.seed = seeds.Next();
      c.options.termination = TerminationMode::kEarlyDetect;
      c.options.audit = AuditMode::kOff;
      c.options.engine = w.engine;
      c.options.shards = w.shards;
      cells.push_back(c);
    }
  }
  return cells;
}

std::string CheckCell(const WeightedGraph& g, const Cell& cell,
                      const MstRunResult& r) {
  if (r.outcome.status != RunStatus::kCompleted) {
    return std::string("outcome ") + RunStatusName(r.outcome.status) + ": " +
           r.outcome.detail;
  }
  if (!r.consistency_error.empty()) return r.consistency_error;
  if (cell.algorithm == MstAlgorithm::kBmSpanningTree) {
    return IsSpanningTree(g, EdgeMask(g, r.tree_edges))
               ? std::string()
               : std::string("not a spanning tree");
  }
  return VerifyExactMst(g, r.tree_edges).error;
}

std::string CompareRuns(const MstRunResult& a, const MstRunResult& b) {
  if (a.tree_edges != b.tree_edges) return "tree_edges";
  if (a.phases != b.phases) return "phases";
  const RunStats& x = a.stats;
  const RunStats& y = b.stats;
  if (x.rounds != y.rounds) return "stats.rounds";
  if (x.max_awake != y.max_awake) return "stats.max_awake";
  if (x.avg_awake != y.avg_awake) return "stats.avg_awake";
  if (x.total_messages != y.total_messages) return "stats.total_messages";
  if (x.total_bits != y.total_bits) return "stats.total_bits";
  if (x.max_message_bits != y.max_message_bits) {
    return "stats.max_message_bits";
  }
  if (x.dropped_messages != y.dropped_messages) {
    return "stats.dropped_messages";
  }
  if (x.awake_node_rounds != y.awake_node_rounds) {
    return "stats.awake_node_rounds";
  }
  return {};
}

SimulatorOptions SimOptionsOf(const MstOptions& o) {
  SimulatorOptions s;
  s.seed = o.seed;
  s.max_rounds = o.max_rounds;
  s.record_wake_times = o.record_wake_times;
  s.fault_plan = o.fault_plan;
  s.audit = o.audit;
  s.shards = o.shards;
  s.shard_policy = o.shard_policy;
  s.engine = o.engine;
  return s;
}

}  // namespace smst::perfbench
