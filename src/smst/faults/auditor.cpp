#include "smst/faults/auditor.h"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace smst {

namespace {

std::uint32_t WidthOf(std::uint64_t v) {
  return v == 0 ? 1u : static_cast<std::uint32_t>(std::bit_width(v));
}

// Information content of one message under the model's accounting: the
// +-infinity sentinels are distinguished symbols worth O(1) bits, not
// 64-bit integers (message.h documents them as outside the weight range).
std::uint32_t EffectiveBits(const Message& m) {
  auto field = [](std::uint64_t v) {
    return v == kPlusInfinity ? 1u : WidthOf(v);
  };
  return 8u + field(m.a) + field(m.b) + field(m.c);
}

}  // namespace

Auditor::Auditor(const WeightedGraph& graph) : Auditor(graph, Config{}) {}

Auditor::Auditor(const WeightedGraph& graph, Config config)
    : graph_(graph), config_(config), awake_in_(graph.NumNodes(), 0) {
  if (config_.max_message_bits != 0) {
    bit_budget_ = config_.max_message_bits;
  } else {
    // The CONGEST budget: every legitimate field is an ID (<= N), a
    // weight (<= the max finite edge weight), or a count/level/round
    // index (<= n, covered by the slack). All are poly(n), so the
    // per-field ceiling is the widest of those plus a small constant
    // slack for flag/count packing; three fields plus the tag byte.
    Weight max_weight = 0;
    for (EdgeIndex e = 0; e < graph.NumEdges(); ++e) {
      const Weight w = graph.GetEdge(e).weight;
      if (w != kPlusInfinity && w > max_weight) max_weight = w;
    }
    const std::uint32_t field_bits =
        std::max({WidthOf(graph.MaxId()), WidthOf(max_weight),
                  WidthOf(graph.NumNodes())}) +
        4;
    // One field may legitimately carry up to four log-sized values in
    // 16-bit lanes (the log* coloring's Transmit-Adjacent coordinates,
    // coloring.cpp Pack4) — still O(log n) information, but the fixed
    // lane positions push its *positional* width to 3*16 + the top
    // lane's content. Budget the message as one packed field plus two
    // plain fields, or three plain fields, whichever is wider.
    const std::uint32_t packed_field_bits =
        3u * 16u + std::min(field_bits, 16u);
    bit_budget_ =
        8u + std::max(3u * field_bits, packed_field_bits + 2u * field_bits);
  }
}

void Auditor::Violate(std::string check, Round r, NodeIndex node,
                      std::string detail) {
  ++violation_count_;
  if (config_.fail_fast) {
    throw std::runtime_error("audit violation [" + check + "] round " +
                             std::to_string(r) + " node " +
                             std::to_string(node) + ": " + detail);
  }
  if (recorded_.size() < config_.max_recorded) {
    recorded_.push_back(
        AuditViolation{std::move(check), r, node, std::move(detail)});
  }
}

void Auditor::OnAwake(Round r, NodeIndex v) {
  if (v >= awake_in_.size()) {
    Violate("asleep-send", r, v, "awake mark for a node outside the graph");
    return;
  }
  awake_in_[v] = r;
  ++awake_node_rounds_;
}

void Auditor::OnSend(Round r, NodeIndex v, std::uint32_t port,
                     const Message& m) {
  if (!AwakeNow(r, v)) {
    Violate("asleep-send", r, v,
            "sent on port " + std::to_string(port) +
                " while not awake this round");
  }
  const std::uint32_t bits = EffectiveBits(m);
  if (bits > bit_budget_) {
    Violate("congest-bits", r, v,
            "message of " + std::to_string(bits) + " bits exceeds the " +
                std::to_string(bit_budget_) + "-bit CONGEST budget");
  }
}

void Auditor::OnDeliver(Round r, NodeIndex src, NodeIndex dst,
                        const Message&) {
  if (!AwakeNow(r, dst)) {
    Violate("asleep-receive", r, dst,
            "delivery from node " + std::to_string(src) +
                " to a node not awake this round");
  }
}

void Auditor::OnDrop(Round, NodeIndex, bool injected) {
  if (injected) {
    ++injected_drops_;
  } else {
    ++model_drops_;
  }
}

void Auditor::CheckAwakeMeter(const Metrics& metrics) {
  std::uint64_t metered_awake = 0;
  std::uint64_t metered_drops = 0;
  for (const NodeMetrics& m : metrics.PerNode()) {
    metered_awake += m.awake_rounds;
    metered_drops += m.messages_dropped;
  }
  if (metered_awake != awake_node_rounds_) {
    Violate("awake-meter", metrics.LastRound(), kInvalidNode,
            "engine metered " + std::to_string(metered_awake) +
                " awake node-rounds, auditor observed " +
                std::to_string(awake_node_rounds_));
  }
  if (metered_drops != model_drops_) {
    Violate("awake-meter", metrics.LastRound(), kInvalidNode,
            "engine metered " + std::to_string(metered_drops) +
                " model drops, auditor observed " +
                std::to_string(model_drops_));
  }
}

void Auditor::CheckForest(Round when, const std::vector<LdtState>& states) {
  const std::size_t n = graph_.NumNodes();
  if (states.size() != n) {
    Violate("forest", when, kInvalidNode,
            "snapshot covers " + std::to_string(states.size()) + " of " +
                std::to_string(n) + " nodes");
    return;
  }
  // Edge-local checks: valid parent port, symmetric membership in the
  // parent's child list, level/fragment agreement, root labeling.
  for (NodeIndex v = 0; v < n; ++v) {
    const LdtState& s = states[v];
    if (s.IsRoot()) {
      if (s.level != 0) {
        Violate("forest", when, v, "root with nonzero level");
      }
      if (s.fragment_id != graph_.IdOf(v)) {
        Violate("forest", when, v, "root's fragment ID is not its own ID");
      }
      continue;
    }
    const auto ports = graph_.PortsOf(v);
    if (s.parent_port >= ports.size()) {
      Violate("forest", when, v, "parent port out of range");
      continue;
    }
    const NodeIndex parent = ports[s.parent_port].neighbor;
    const LdtState& p = states[parent];
    if (s.level != p.level + 1) {
      Violate("forest", when, v,
              "level " + std::to_string(s.level) + " but parent node " +
                  std::to_string(parent) + " has level " +
                  std::to_string(p.level));
    }
    if (s.fragment_id != p.fragment_id) {
      Violate("forest", when, v, "fragment ID differs from parent's");
    }
    const EdgeIndex edge = ports[s.parent_port].edge;
    bool symmetric = false;
    for (std::uint32_t q : p.child_ports) {
      const auto parent_ports = graph_.PortsOf(parent);
      if (q < parent_ports.size() && parent_ports[q].edge == edge) {
        symmetric = true;
        break;
      }
    }
    if (!symmetric) {
      Violate("forest", when, v,
              "parent node " + std::to_string(parent) +
                  " does not list this node as a child");
    }
  }
  // Parent chains must reach a root within n hops; a longer walk is a
  // cycle, attributed to the first node whose walk overruns.
  for (NodeIndex v = 0; v < n; ++v) {
    NodeIndex cur = v;
    std::size_t steps = 0;
    while (!states[cur].IsRoot()) {
      if (states[cur].parent_port >= graph_.PortsOf(cur).size()) break;
      cur = graph_.PortsOf(cur)[states[cur].parent_port].neighbor;
      if (++steps > n) {
        Violate("forest", when, v, "parent chain does not reach a root "
                                   "(cycle in the fragment structure)");
        break;
      }
    }
  }
}

std::string Auditor::Report() const {
  if (Clean()) return "";
  std::ostringstream out;
  out << violation_count_ << " audit violation(s)";
  if (violation_count_ > recorded_.size()) {
    out << " (" << recorded_.size() << " recorded)";
  }
  for (const AuditViolation& v : recorded_) {
    out << "\n  [" << v.check << "] round " << v.round;
    if (v.node != kInvalidNode) out << " node " << v.node;
    out << ": " << v.detail;
  }
  return out.str();
}

}  // namespace smst
