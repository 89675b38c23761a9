#include "core/dot.h"

#include <functional>
#include <unordered_map>

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
  std::unordered_map<ObddId, bool> seen;
  std::function<void(ObddId)> rec = [&](ObddId g) {
    if (mgr.IsTerminal(g) || seen[g]) return;
    seen[g] = true;
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
    rec(mgr.lo(g));
    rec(mgr.hi(g));
  };
  rec(f);
  if (mgr.IsTerminal(f)) {
    out += "  root -> t" + std::to_string(f) + ";\n";
  }
  return out + "}\n";
}

std::string DotSdd(const SddManager& mgr, SddId f,
                   const std::vector<std::string>& names) {
  std::string out = "digraph sdd {\n  node [shape=record];\n";
  std::unordered_map<SddId, bool> seen;
  std::function<std::string(SddId)> label = [&](SddId g) -> std::string {
    if (g == mgr.False()) return "F";
    if (g == mgr.True()) return "T";
    if (mgr.IsLiteral(g)) return LitLabel(mgr.literal(g), names);
    return "";  // decision nodes get their own record node
  };
  std::function<void(SddId)> rec = [&](SddId g) {
    if (!mgr.IsDecision(g) || seen[g]) return;
    seen[g] = true;
    // One record with an element cell per (prime, sub).
    std::string cells;
    size_t idx = 0;
    for (const auto& [p, s] : mgr.elements(g)) {
      if (idx > 0) cells += "|";
      const std::string pl = mgr.IsDecision(p) ? "*" : label(p);
      const std::string sl = mgr.IsDecision(s) ? "*" : label(s);
      cells += "{<p" + std::to_string(idx) + "> " + pl + "|<s" +
               std::to_string(idx) + "> " + sl + "}";
      ++idx;
    }
    out += "  n" + std::to_string(g) + " [label=\"" + cells + "\"];\n";
    idx = 0;
    for (const auto& [p, s] : mgr.elements(g)) {
      if (mgr.IsDecision(p)) {
        out += "  n" + std::to_string(g) + ":p" + std::to_string(idx) +
               " -> n" + std::to_string(p) + ";\n";
        rec(p);
      }
      if (mgr.IsDecision(s)) {
        out += "  n" + std::to_string(g) + ":s" + std::to_string(idx) +
               " -> n" + std::to_string(s) + ";\n";
        rec(s);
      }
      ++idx;
    }
  };
  if (mgr.IsDecision(f)) {
    rec(f);
  } else {
    out += "  n [label=\"" + label(f) + "\"];\n";
  }
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
