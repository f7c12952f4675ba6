#include "smst/graph/io.h"

#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "smst/util/args.h"

namespace smst {

namespace {

[[noreturn]] void Fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("edge list line " + std::to_string(line) +
                              ": " + what);
}

// The largest node count: indices 0..n-1 must stay below kInvalidNode.
constexpr std::uint64_t kMaxNodes = kInvalidNode;

std::uint64_t ParseField(std::size_t line, const std::string& what,
                         const std::string& token, std::uint64_t max) {
  const auto v = ParsePlainDecimal(token, max);
  if (!v) {
    Fail(line, "bad " + what + " '" + token +
                   "' (expected an integer in [0, " + std::to_string(max) +
                   "])");
  }
  return *v;
}

}  // namespace

WeightedGraph ReadEdgeList(std::istream& in) {
  std::optional<GraphBuilder> builder;
  std::size_t n = 0;
  NodeId max_id = 0;
  // Node index -> ID from the `id` lines (a repeated index keeps its last
  // line). Kept sparse so memory follows the input, not the declared n.
  std::map<NodeIndex, NodeId> ids;

  std::string line;
  std::size_t line_no = 0;
  const auto node_index = [&](const std::string& token) {
    return static_cast<NodeIndex>(
        ParseField(line_no, "node index", token, n - 1));
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;  // blank / comment-only

    if (tok[0] == "n") {
      if (builder.has_value()) Fail(line_no, "duplicate 'n' header");
      if (tok.size() < 2 || tok.size() > 3) {
        Fail(line_no, "expected 'n <node-count> [<max-id>]'");
      }
      n = ParseField(line_no, "node count", tok[1], kMaxNodes);
      if (n == 0) Fail(line_no, "bad node count '0'");
      max_id = tok.size() == 3
                   ? ParseField(line_no, "max-id", tok[2],
                                std::numeric_limits<NodeId>::max())
                   : n;
      if (max_id < n) Fail(line_no, "max-id below node count");
      builder.emplace(n);
      continue;
    }
    if (!builder.has_value()) Fail(line_no, "edges before the 'n' header");
    if (tok[0] == "id") {
      if (tok.size() != 3) {
        Fail(line_no, "expected 'id <node-index> <node-id>'");
      }
      ids[node_index(tok[1])] = ParseField(
          line_no, "node id", tok[2], std::numeric_limits<NodeId>::max());
      continue;
    }
    if (tok.size() != 3) Fail(line_no, "expected 'u v weight'");
    const NodeIndex u = node_index(tok[0]);
    const NodeIndex v = node_index(tok[1]);
    const Weight w = ParseField(line_no, "weight", tok[2],
                                std::numeric_limits<Weight>::max());
    try {
      builder->AddEdge(u, v, w);
    } catch (const std::invalid_argument& e) {
      Fail(line_no, e.what());
    }
  }
  if (!builder.has_value()) throw std::invalid_argument("empty edge list");
  if (!ids.empty()) {
    // Every node needs an id line once any has one.
    std::vector<NodeId> by_index;
    for (const auto& [v, id] : ids) {
      if (v != by_index.size()) break;
      by_index.push_back(id);
    }
    if (by_index.size() != n) {
      throw std::invalid_argument("node " + std::to_string(by_index.size()) +
                                  " has no 'id' line");
    }
    builder->SetIds(std::move(by_index), max_id);
  }
  return std::move(*builder).Build();
}

WeightedGraph ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  return ReadEdgeList(in);
}

void WriteEdgeList(const WeightedGraph& g, std::ostream& out) {
  out << "# sleeping-mst edge list\n";
  out << "n " << g.NumNodes() << " " << g.MaxId() << "\n";
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    out << "id " << v << " " << g.IdOf(v) << "\n";
  }
  for (const Edge& e : g.Edges()) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
}

void WriteDot(const WeightedGraph& g, const std::vector<EdgeIndex>& tree_edges,
              std::ostream& out) {
  std::vector<bool> in_tree(g.NumEdges(), false);
  for (EdgeIndex e : tree_edges) in_tree[e] = true;
  out << "graph smst {\n  node [shape=circle fontsize=10];\n";
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    out << "  " << v << " [label=\"" << v << " (" << g.IdOf(v) << ")\"];\n";
  }
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    const Edge& edge = g.GetEdge(e);
    out << "  " << edge.u << " -- " << edge.v << " [label=\"" << edge.weight
        << "\"";
    if (in_tree[e]) out << " penwidth=2.5 color=\"#2166ac\"";
    else out << " color=\"#bbbbbb\"";
    out << "];\n";
  }
  out << "}\n";
}

}  // namespace smst
