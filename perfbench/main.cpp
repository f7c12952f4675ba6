// smst_perfbench: one run of one workload of the whole-run benchmark.
//
//   smst_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out FILE] [--commit ID]
//
// Closed loop, one client, one process: the workload's graphs are drawn
// from --seed during set-up, then each cell (one ComputeMst call on one
// graph plus the check of its output) runs after the previous one ends.
// With --trace 0 the timed phase repeats passes over all cells while the
// next pass fits in --seconds and prints the end-to-end metrics; with
// --trace 1 it takes the first traced_graphs graphs' cells apart layer by
// layer instead and prints the per-layer metrics. The last line of
// standard output is the result object; --out also writes the full
// record (build, host, wake-shape histogram, spans) as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "layers.h"
#include "smst/mst/api.h"
#include "smst/util/json.h"
#include "smst/util/stats.h"
#include "workloads.h"

namespace smst::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// A number with every digit it was measured with (JSON has no NaN/inf).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- spans

// One timed interval around a call into a layer. Spans of one cell share
// `cell` (0 is set-up); `parent` indexes the enclosing span, -1 for none.
struct Span {
  std::string name;
  std::uint64_t cell = 0;
  int parent = -1;
  double start = 0;  // seconds since process start
  double end = 0;
};

// Spans are kept in memory and written out once the run has ended. A
// null log times calls without recording them (the untraced run).
class SpanLog {
 public:
  int Begin(std::string name, std::uint64_t cell, int parent) {
    spans_.push_back({std::move(name), cell, parent,
                      SecondsBetween(kProcessStart, Clock::now()), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = SecondsBetween(kProcessStart, Clock::now());
    return s.end - s.start;
  }
  std::string ToJson() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) out += ",";
      out += "{\"name\":" + JsonStr(s.name) +
             ",\"cell\":" + std::to_string(s.cell) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"start\":" + Num(s.start) + ",\"end\":" + Num(s.end) + "}";
    }
    return out + "]";
  }

 private:
  std::vector<Span> spans_;
};

// Runs `f`, returning its wall time; recorded as a span when tracing.
template <class F>
double Timed(SpanLog* log, const char* name, std::uint64_t cell, int parent,
             F&& f) {
  if (log != nullptr) {
    const int id = log->Begin(name, cell, parent);
    f();
    return log->End(id);
  }
  const auto t0 = Clock::now();
  f();
  return SecondsBetween(t0, Clock::now());
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures, for humans
  std::vector<Metric> metrics;
  // Untraced runs: each cell's wall seconds in every pass it completed.
  std::vector<std::vector<double>> cell_seconds;

  void Fail(std::string what) {
    ++failed;
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
    if (errors.size() < 16) errors.push_back(std::move(what));
  }
};

std::string ResultJson(const Outcome& o) {
  std::string m;
  for (const Metric& x : o.metrics) {
    if (!m.empty()) m += ", ";
    m += JsonStr(x.name) + ": {\"value\": " + Num(x.value) +
         ", \"unit\": " + JsonStr(x.unit) + "}";
  }
  return std::string("{\"correct\": ") + (o.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {" + m +
         "}}";
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------- set-up

struct Setup {
  std::vector<WeightedGraph> graphs;
  double setup_s = 0;     // median over repeats; the first from process start
  double generate_s = 0;  // median over repeats of generation alone
};

Setup RunSetup(const WorkloadSpec& w, std::uint64_t seed, SpanLog* log) {
  Setup s;
  std::vector<double> setup, generate;
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    const auto t0 = Clock::now();
    const int span = log != nullptr ? log->Begin("setup", 0, -1) : -1;
    s.graphs.clear();  // peak memory holds one graph set, as in one set-up
    generate.push_back(Timed(log, "graph.generate", 0, span, [&] {
      s.graphs = GenerateGraphs(w, seed);
    }));
    if (log != nullptr) log->End(span);
    setup.push_back(
        SecondsBetween(rep == 0 ? kProcessStart : t0, Clock::now()));
  }
  s.setup_s = Median(setup);
  s.generate_s = Median(generate);
  return s;
}

// --------------------------------------------------- untraced: end to end

std::string CellName(const WorkloadSpec& w, std::size_t i, const Cell& cell) {
  return std::string(w.name) + " cell " + std::to_string(i) + " (" +
         MstAlgorithmName(cell.algorithm) + ")";
}

// The output the first pass saw for a cell; later passes must repeat it.
MstRunResult Fingerprint(const MstRunResult& r) {
  MstRunResult f;
  f.tree_edges = r.tree_edges;
  f.stats = r.stats;
  f.phases = r.phases;
  return f;
}

Outcome RunEndToEnd(const WorkloadSpec& w, std::uint64_t seed,
                    double seconds) {
  const Setup setup = RunSetup(w, seed, nullptr);
  const std::vector<Cell> cells = MakeCells(w, seed, w.graphs);
  std::vector<std::optional<MstRunResult>> first(cells.size());

  // Per cell, its wall time (ComputeMst plus the check) and its time in
  // ComputeMst in every pass. Each time metric sums the per-cell medians,
  // so a spell of host load that slows some cells of one pass is dropped
  // rather than averaged in.
  std::vector<std::vector<double>> cell_s(cells.size());
  std::vector<std::vector<double>> compute_s(cells.size());
  Outcome o;
  std::vector<double> pass_s;
  const auto timed_start = Clock::now();
  do {
    const auto t_pass = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const WeightedGraph& g = setup.graphs[cell.graph];
      ++o.attempted;
      try {
        const auto t0 = Clock::now();
        const MstRunResult r = ComputeMst(g, cell.algorithm, cell.options);
        compute_s[i].push_back(SecondsBetween(t0, Clock::now()));
        std::string err = CheckCell(g, cell, r);
        cell_s[i].push_back(SecondsBetween(t0, Clock::now()));
        if (err.empty() && first[i].has_value()) {
          const std::string diff = CompareRuns(*first[i], r);
          if (!diff.empty()) err = "not repeatable: " + diff + " differs";
        }
        if (!first[i].has_value()) first[i] = Fingerprint(r);
        if (!err.empty()) o.Fail(CellName(w, i, cell) + ": " + err);
      } catch (const std::exception& e) {
        o.Fail(CellName(w, i, cell) + " threw: " + e.what());
      }
    }
    pass_s.push_back(SecondsBetween(t_pass, Clock::now()));
  } while (SecondsBetween(timed_start, Clock::now()) + Median(pass_s) <=
           seconds);

  double sweep_s = 0, compute_total = 0, anr = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cell_s[i].empty() || !first[i]) continue;  // always threw
    sweep_s += Median(cell_s[i]);
    compute_total += Median(compute_s[i]);
    anr += static_cast<double>(first[i]->stats.awake_node_rounds);
  }
  o.metrics = {
      {"setup_s", setup.setup_s, "s"},
      {"sweep_s", sweep_s, "s"},
      {"anr_per_s", compute_total > 0 ? anr / compute_total : 0.0, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_share",
       static_cast<double>(o.attempted - o.failed) /
           static_cast<double>(o.attempted),
       "ratio"},
  };
  o.cell_seconds = std::move(cell_s);
  return o;
}

// ------------------------------------------------------ traced: per layer

struct LayerTotals {
  double generate_s = 0, check_s = 0, edges = 0;
  double construct_s = 0, replay_s = 0, replay_serial_s = 0;
  double replay_messages = 0;
  double allocs = 0;
  std::array<double, kProcedures.size()> procedure_s{};
  std::uint64_t max_wakes = 0;
  double compute_s = 0, traced_compute_s = 0;
  double anr = 0, rounds = 0, phases = 0, messages = 0, bits = 0;
  std::uint64_t max_awake = 0;
  WakeShape shape;
};

Outcome RunTraced(const WorkloadSpec& w, std::uint64_t seed, SpanLog& log,
                  WakeShape& shape_out) {
  const Setup setup = RunSetup(w, seed, &log);
  const std::size_t graphs = std::min(w.traced_graphs, w.graphs);
  const std::vector<Cell> cells = MakeCells(w, seed, graphs);

  Outcome o;
  LayerTotals t;
  t.generate_s = setup.generate_s;
  for (const WeightedGraph& g : setup.graphs) {
    t.edges += static_cast<double>(g.NumEdges());
  }
  t.edges /= static_cast<double>(setup.graphs.size());

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const WeightedGraph& g = setup.graphs[cell.graph];
    const std::uint64_t id = i + 1;
    const std::string where = CellName(w, i, cell);
    const int root = log.Begin("cell", id, -1);
    ++o.attempted;
    const std::uint64_t failed_before = o.failed;
    try {
      // mst: the untraced run, as the end-to-end metrics time it.
      MstRunResult r;
      const std::uint64_t allocs_before = bench::AllocCount();
      t.compute_s += Timed(&log, "mst.compute", id, root, [&] {
        r = ComputeMst(g, cell.algorithm, cell.options);
      });
      t.allocs += static_cast<double>(bench::AllocCount() - allocs_before);
      t.anr += static_cast<double>(r.stats.awake_node_rounds);
      t.rounds += static_cast<double>(r.stats.rounds);
      t.phases += static_cast<double>(r.phases);
      t.messages += static_cast<double>(r.stats.total_messages);
      t.bits += static_cast<double>(r.stats.total_bits);
      t.max_awake = std::max(t.max_awake, r.stats.max_awake);

      // graph: the output check.
      std::string err;
      t.check_s += Timed(&log, "graph.check", id, root,
                         [&] { err = CheckCell(g, cell, r); });
      if (!err.empty()) o.Fail(where + ": " + err);

      // trace: the same run recording every node's wake rounds.
      MstOptions traced_opt = cell.options;
      traced_opt.record_wake_times = true;
      MstRunResult rec;
      t.traced_compute_s += Timed(&log, "mst.compute_traced", id, root, [&] {
        rec = ComputeMst(g, cell.algorithm, traced_opt);
      });
      if (auto d = CompareRuns(r, rec); !d.empty()) {
        o.Fail(where + ": recording wake times changed " + d);
      }

      // Identity: a sharded cell equals its serial run, and a coroutine
      // cell equals its flat-engine form where one exists.
      std::optional<MstOptions> twin;
      if (cell.options.shards > 0) {
        twin = cell.options;
        twin->shards = 0;
      } else if (cell.options.engine == EngineMode::kCoroutine &&
                 SupportsFlatEngine(cell.algorithm, cell.options)) {
        twin = cell.options;
        twin->engine = EngineMode::kFlat;
      }
      if (twin.has_value()) {
        MstRunResult other;
        Timed(&log, "identity.twin", id, root,
              [&] { other = ComputeMst(g, cell.algorithm, *twin); });
        if (auto d = CompareRuns(r, other); !d.empty()) {
          o.Fail(where + ": differs from its " +
                 (cell.options.shards > 0 ? "serial" : "flat-engine") +
                 " run in " + d);
        }
      }

      // runtime: building the cell's Simulator, and replaying its wake
      // shape on the cell's engine (and serial, for a sharded cell).
      const SimulatorOptions sim_opt = SimOptionsOf(cell.options);
      t.construct_s += Timed(&log, "runtime.construct", id, root,
                             [&] { Simulator sim(g, sim_opt); });
      const WakeShape shape = MeasureWakeShape(g.NumNodes(), rec.wake_times);
      t.shape.Add(shape);
      const int replay_span = log.Begin("runtime.replay", id, root);
      const ReplayResult replay = ReplayWakeShape(g, rec, sim_opt);
      log.End(replay_span);
      t.replay_s += replay.seconds;
      t.replay_messages += static_cast<double>(replay.stats.total_messages);
      if (replay.stats.awake_node_rounds != r.stats.awake_node_rounds ||
          shape.AwakeNodeRounds() != r.stats.awake_node_rounds) {
        o.Fail(where + ": replay woke " +
               std::to_string(replay.stats.awake_node_rounds) +
               " node-rounds, recorded " +
               std::to_string(r.stats.awake_node_rounds));
      }
      if (cell.options.shards > 0) {
        SimulatorOptions serial = sim_opt;
        serial.shards = 0;
        const int span = log.Begin("runtime.replay_serial", id, root);
        const ReplayResult rs = ReplayWakeShape(g, rec, serial);
        log.End(span);
        t.replay_serial_s += rs.seconds;
        if (rs.stats.awake_node_rounds != replay.stats.awake_node_rounds ||
            rs.stats.total_messages != replay.stats.total_messages) {
          o.Fail(where + ": serial replay differs from the sharded one");
        }
      } else {
        t.replay_serial_s += replay.seconds;
      }

      // sleeping: each toolbox procedure once on the final LDT forest.
      for (Procedure p : kProcedures) {
        const int span =
            log.Begin(std::string("sleeping.") + ProcedureName(p), id, root);
        const ProcedureResult pr = RunProcedure(g, r.final_ldt, p, sim_opt);
        log.End(span);
        t.procedure_s[static_cast<std::size_t>(p)] += pr.seconds;
        t.max_wakes = std::max(t.max_wakes, pr.max_wakes);
        if (!pr.error.empty()) o.Fail(where + ": " + pr.error);
        if (pr.max_wakes > 2) {
          o.Fail(where + ": " + ProcedureName(p) + " woke a node " +
                 std::to_string(pr.max_wakes) + " times (bound 2)");
        }
      }
    } catch (const std::exception& e) {
      o.Fail(where + " threw: " + e.what());
    }
    log.End(root);
    // A cell counts once however many of its checks failed.
    if (o.failed > failed_before + 1) o.failed = failed_before + 1;
  }

  const WakeShape& s = t.shape;
  const double active = static_cast<double>(s.ActiveRounds());
  const double dense_rounds = static_cast<double>(s.active_rounds[4]);
  const double shape_anr = static_cast<double>(s.AwakeNodeRounds());
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  o.metrics = {
      {"graph.generate_s", t.generate_s, "s"},
      {"graph.check_s", t.check_s, "s"},
      {"graph.edges", t.edges, "count"},
      {"runtime.construct_s", t.construct_s, "s"},
      {"runtime.replay_s", t.replay_s, "s"},
      {"runtime.replay_ns_per_anr", ratio(t.replay_s * 1e9, t.anr), "ns"},
      {"runtime.replay_us_per_active_round", ratio(t.replay_s * 1e6, active),
       "us"},
      {"runtime.replay_share", ratio(t.replay_s, t.compute_s), "ratio"},
      {"runtime.replay_messages", t.replay_messages, "count"},
      {"runtime.active_rounds", active, "count"},
      {"runtime.dense_rounds", dense_rounds, "count"},
      {"runtime.dense_anr_share",
       ratio(static_cast<double>(s.awake_node_rounds[4]), shape_anr), "ratio"},
      {"runtime.anr_per_active_round", ratio(shape_anr, active), "count"},
      {"runtime.allocs_per_anr", ratio(t.allocs, t.anr), "count"},
      {"runtime.replay_serial_s", t.replay_serial_s, "s"},
      {"runtime.shard_speedup", ratio(t.replay_serial_s, t.replay_s), "ratio"},
  };
  for (Procedure p : kProcedures) {
    o.metrics.push_back(
        {std::string("sleeping.") + ProcedureName(p) + "_s",
         t.procedure_s[static_cast<std::size_t>(p)], "s"});
  }
  o.metrics.insert(
      o.metrics.end(),
      {
          {"sleeping.max_wakes", static_cast<double>(t.max_wakes), "count"},
          {"mst.compute_s", t.compute_s, "s"},
          {"mst.program_s", t.compute_s - t.replay_s - t.construct_s, "s"},
          {"mst.anr", t.anr, "count"},
          {"mst.max_awake", static_cast<double>(t.max_awake), "count"},
          {"mst.rounds", t.rounds, "count"},
          {"mst.phases", t.phases, "count"},
          {"mst.messages", t.messages, "count"},
          {"mst.bits", t.bits, "count"},
          {"trace.overhead", ratio(t.traced_compute_s, t.compute_s), "ratio"},
      });
  shape_out = t.shape;
  return o;
}

std::string WakeShapeJson(const WakeShape& s) {
  std::string out = "[";
  for (std::size_t b = 0; b < WakeShape::kBuckets; ++b) {
    if (b) out += ",";
    out += "{\"awake\":" + JsonStr(WakeShape::kBucketNames[b]) +
           ",\"active_rounds\":" + std::to_string(s.active_rounds[b]) +
           ",\"awake_node_rounds\":" + std::to_string(s.awake_node_rounds[b]) +
           "}";
  }
  return out + "]";
}

void PrintWakeShape(const WorkloadSpec& w, std::uint64_t seed,
                    const WakeShape& s) {
  std::printf("wake shape of %.*s seed %" PRIu64 " (n = %zu)\n",
              static_cast<int>(w.name.size()), w.name.data(), seed, w.n);
  std::printf("  %-10s %14s %16s\n", "awake", "active_rounds",
              "awake_node_rounds");
  for (std::size_t b = 0; b < WakeShape::kBuckets; ++b) {
    std::printf("  %-10s %14" PRIu64 " %16" PRIu64 "\n",
                WakeShape::kBucketNames[b], s.active_rounds[b],
                s.awake_node_rounds[b]);
  }
}

std::string CellSecondsJson(const Outcome& o) {
  std::string out = "[";
  for (std::size_t i = 0; i < o.cell_seconds.size(); ++i) {
    out += i ? ",[" : "[";
    for (std::size_t k = 0; k < o.cell_seconds[i].size(); ++k) {
      if (k) out += ",";
      out += Num(o.cell_seconds[i][k]);
    }
    out += "]";
  }
  return out + "]";
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "smst_perfbench: %s\nusage: smst_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out FILE] [--commit ID]\n"
               "workloads: %s\n",
               why.c_str(), WorkloadNames().c_str());
  std::exit(2);
}

std::uint64_t ParseUint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
    Usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = ParseUint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseUint(flag, v));
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || a.trace < 0) {
    Usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) Usage("unknown workload '" + args.workload + "'");

  // A build with assertions or the auditor on by default runs a
  // different program than the one users time; refuse to measure it.
#ifndef NDEBUG
  std::fprintf(stderr, "smst_perfbench: refusing to time a build with "
                       "assertions on (build type %s)\n",
               SMST_PERFBENCH_BUILD_TYPE);
  return 3;
#endif
#ifdef SMST_AUDIT_DEFAULT_ON
  std::fprintf(stderr, "smst_perfbench: refusing to time a build with the "
                       "auditor on by default (SMST_AUDIT or Debug)\n");
  return 3;
#endif

  SpanLog log;
  WakeShape shape;
  const Outcome o = args.trace == 1
                        ? RunTraced(*w, args.seed, log, shape)
                        : RunEndToEnd(*w, args.seed, args.seconds);
  if (args.trace == 1) PrintWakeShape(*w, args.seed, shape);

  const std::string result = ResultJson(o);
  if (!args.out.empty()) {
    std::string errors = "[";
    for (std::size_t i = 0; i < o.errors.size(); ++i) {
      if (i) errors += ",";
      errors += JsonStr(o.errors[i]);
    }
    errors += "]";
    const std::string record =
        "{\"workload\":" + JsonStr(args.workload) +
        ",\"seed\":" + std::to_string(args.seed) +
        ",\"seconds\":" + Num(args.seconds) +
        ",\"trace\":" + std::to_string(args.trace) +
        ",\"env\":{\"nproc\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\"compiler\":" + JsonStr(CompilerName()) +
        ",\"build_type\":" + JsonStr(SMST_PERFBENCH_BUILD_TYPE) +
        ",\"commit\":" + JsonStr(args.commit) + "}" +
        ",\"result\":" + result + ",\"errors\":" + errors +
        (args.trace == 1 ? ",\"wake_shape\":" + WakeShapeJson(shape) +
                               ",\"spans\":" + log.ToJson()
                         : ",\"cell_seconds\":" + CellSecondsJson(o)) +
        "}\n";
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr || std::fputs(record.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "smst_perfbench: cannot write %s\n",
                   args.out.c_str());
      return 2;
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace smst::perfbench

int main(int argc, char** argv) {
  return smst::perfbench::Main(argc, argv);
}
