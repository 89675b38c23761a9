#include "core/dot.h"

namespace tbc {

namespace {

std::string NameOf(Var v, const std::vector<std::string>& names) {
  if (v < names.size()) return names[v];
  return std::string("x").append(std::to_string(v));
}

std::string LitLabel(Lit l, const std::vector<std::string>& names) {
  return std::string(l.positive() ? "" : "~").append(NameOf(l.var(), names));
}

}  // namespace

std::string DotVtree(const Vtree& vtree, const std::vector<std::string>& names) {
  std::string out = "digraph vtree {\n  node [shape=plaintext];\n";
  for (VtreeId v = 0; v < vtree.num_nodes(); ++v) {
    if (vtree.IsLeaf(v)) {
      out += "  n" + std::to_string(v) + " [label=\"" +
             NameOf(vtree.var(v), names) + "\"];\n";
    } else {
      out += "  n" + std::to_string(v) + " [label=\"" +
             std::to_string(vtree.position(v)) + "\" shape=circle];\n";
      out += "  n" + std::to_string(v) + " -> n" +
             std::to_string(vtree.left(v)) + ";\n";
      out += "  n" + std::to_string(v) + " -> n" +
             std::to_string(vtree.right(v)) + ";\n";
    }
  }
  return out + "}\n";
}

std::string DotObdd(const ObddManager& mgr, ObddId f,
                    const std::vector<std::string>& names) {
  std::string out =
      "digraph obdd {\n  t0 [label=\"0\" shape=box];\n  t1 [label=\"1\" "
      "shape=box];\n";
  for (const ObddId g : mgr.ReachableAscending(f)) {
    if (mgr.IsTerminal(g)) continue;
    out += "  n" + std::to_string(g) + " [label=\"" +
           NameOf(mgr.var(g), names) + "\" shape=circle];\n";
    auto edge = [&](ObddId child, const char* style) {
      const std::string target =
          std::string(mgr.IsTerminal(child) ? "t" : "n")
              .append(std::to_string(child));
      out += "  n" + std::to_string(g) + " -> " + target + " [style=" + style +
             "];\n";
    };
    edge(mgr.lo(g), "dashed");
    edge(mgr.hi(g), "solid");
  }
  if (mgr.IsTerminal(f)) {
    out += "  root -> t" + std::to_string(f) + ";\n";
  }
  return out + "}\n";
}

std::string DotSdd(const SddManager& mgr, SddId f,
                   const std::vector<std::string>& names) {
  std::string out = "digraph sdd {\n  node [shape=record];\n";
  const auto label = [&](SddId g) -> std::string {
    if (g == mgr.False()) return "F";
    if (g == mgr.True()) return "T";
    if (mgr.IsLiteral(g)) return LitLabel(mgr.literal(g), names);
    return "*";  // decision nodes get their own record node
  };
  f = mgr.Resolve(f);
  if (!mgr.IsDecision(f)) return out + "  n [label=\"" + label(f) + "\"];\n}\n";
  // One record per decision node with an element cell per (prime, sub).
  // Children are named by their Resolve()d ids, the ids the walk visits.
  mgr.ForEachPostorder(f, /*reverse=*/false, [&](SddId g) {
    if (!mgr.IsDecision(g)) return;
    const std::string node = "  n" + std::to_string(g);
    std::string cells;
    std::string edges;
    size_t idx = 0;
    for (const auto& [prime, sub] : mgr.elements(g)) {
      const SddId p = mgr.Resolve(prime);
      const SddId s = mgr.Resolve(sub);
      if (idx > 0) cells += "|";
      cells += "{<p" + std::to_string(idx) + "> " + label(p) + "|<s" +
               std::to_string(idx) + "> " + label(s) + "}";
      if (mgr.IsDecision(p)) {
        edges += node + ":p" + std::to_string(idx) + " -> n" +
                 std::to_string(p) + ";\n";
      }
      if (mgr.IsDecision(s)) {
        edges += node + ":s" + std::to_string(idx) + " -> n" +
                 std::to_string(s) + ";\n";
      }
      ++idx;
    }
    out += node + " [label=\"" + cells + "\"];\n" + edges;
  });
  return out + "}\n";
}

std::string DotNnf(const NnfManager& mgr, NnfId root,
                   const std::vector<std::string>& names) {
  std::string out = "digraph nnf {\n";
  for (NnfId n : mgr.TopologicalOrder(root)) {
    std::string shape = "circle";
    std::string text;
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        text = "0";
        shape = "box";
        break;
      case NnfManager::Kind::kTrue:
        text = "1";
        shape = "box";
        break;
      case NnfManager::Kind::kLiteral:
        text = LitLabel(mgr.lit(n), names);
        shape = "plaintext";
        break;
      case NnfManager::Kind::kAnd:
        text = "and";
        break;
      case NnfManager::Kind::kOr:
        text = "or";
        break;
    }
    out += "  n" + std::to_string(n) + " [label=\"" + text + "\" shape=" +
           shape + "];\n";
    for (NnfId c : mgr.children(n)) {
      out += "  n" + std::to_string(n) + " -> n" + std::to_string(c) + ";\n";
    }
  }
  return out + "}\n";
}

}  // namespace tbc
