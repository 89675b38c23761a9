#include "logic/formula.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash.h"
#include "base/levelize.h"

namespace tbc {

FormulaStore::FormulaStore() {
  nodes_.push_back({Kind::kFalse, kInvalidVar, {}});  // id 0
  nodes_.push_back({Kind::kTrue, kInvalidVar, {}});   // id 1
}

uint64_t FormulaStore::NodeKey(const Node& node) {
  uint64_t h = HashCombine(0, static_cast<size_t>(node.kind));
  h = HashCombine(h, node.var);
  for (FormulaId c : node.children) h = HashCombine(h, c);
  return h;
}

FormulaId FormulaStore::Intern(Node node) {
  const uint64_t key = NodeKey(node);
  for (FormulaId id : index_[key]) {
    const Node& n = nodes_[id];
    if (n.kind == node.kind && n.var == node.var && n.children == node.children) {
      return id;
    }
  }
  const FormulaId id = static_cast<FormulaId>(nodes_.size());
  nodes_.push_back(std::move(node));
  index_[key].push_back(id);
  return id;
}

FormulaId FormulaStore::VarNode(Var v) {
  num_vars_ = std::max(num_vars_, static_cast<size_t>(v) + 1);
  return Intern({Kind::kVar, v, {}});
}

FormulaId FormulaStore::Not(FormulaId f) {
  if (f == False()) return True();
  if (f == True()) return False();
  if (kind(f) == Kind::kNot) return child(f, 0);  // double negation
  return Intern({Kind::kNot, kInvalidVar, {f}});
}

FormulaId FormulaStore::And(FormulaId a, FormulaId b) {
  return And(std::vector<FormulaId>{a, b});
}

FormulaId FormulaStore::Or(FormulaId a, FormulaId b) {
  return Or(std::vector<FormulaId>{a, b});
}

FormulaId FormulaStore::And(const std::vector<FormulaId>& fs) {
  std::vector<FormulaId> kids;
  for (FormulaId f : fs) {
    if (f == False()) return False();
    if (f == True()) continue;
    // Flatten nested conjunctions.
    if (kind(f) == Kind::kAnd) {
      for (FormulaId c : nodes_[f].children) kids.push_back(c);
    } else {
      kids.push_back(f);
    }
  }
  std::sort(kids.begin(), kids.end());
  kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
  if (kids.empty()) return True();
  if (kids.size() == 1) return kids[0];
  return Intern({Kind::kAnd, kInvalidVar, std::move(kids)});
}

FormulaId FormulaStore::Or(const std::vector<FormulaId>& fs) {
  std::vector<FormulaId> kids;
  for (FormulaId f : fs) {
    if (f == True()) return True();
    if (f == False()) continue;
    if (kind(f) == Kind::kOr) {
      for (FormulaId c : nodes_[f].children) kids.push_back(c);
    } else {
      kids.push_back(f);
    }
  }
  std::sort(kids.begin(), kids.end());
  kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
  if (kids.empty()) return False();
  if (kids.size() == 1) return kids[0];
  return Intern({Kind::kOr, kInvalidVar, std::move(kids)});
}

FormulaId FormulaStore::Iff(FormulaId a, FormulaId b) {
  return Or(And(a, b), And(Not(a), Not(b)));
}

FormulaId FormulaStore::ExactlyOne(const std::vector<FormulaId>& fs) {
  return And(Or(fs), AtMostOne(fs));
}

FormulaId FormulaStore::AtMostOne(const std::vector<FormulaId>& fs) {
  std::vector<FormulaId> parts;
  for (size_t i = 0; i < fs.size(); ++i) {
    for (size_t j = i + 1; j < fs.size(); ++j) {
      parts.push_back(Or(Not(fs[i]), Not(fs[j])));
    }
  }
  return And(parts);
}

FormulaId FormulaStore::Majority(const std::vector<FormulaId>& fs) {
  return AtLeastK(fs, fs.size() / 2 + 1);
}

FormulaId FormulaStore::AtLeastK(const std::vector<FormulaId>& fs, size_t k) {
  // DP over prefixes: reach[j] = "at least j of fs[0..i) hold".
  if (k == 0) return True();
  if (k > fs.size()) return False();
  std::vector<FormulaId> reach(k + 1);
  reach[0] = True();
  for (size_t j = 1; j <= k; ++j) reach[j] = False();
  for (FormulaId f : fs) {
    for (size_t j = k; j >= 1; --j) {
      reach[j] = Or(reach[j], And(reach[j - 1], f));
    }
  }
  return reach[k];
}

std::vector<FormulaId> FormulaStore::ReachableAscending(FormulaId f) const {
  return tbc::ReachableAscending(f, [this](FormulaId g, auto&& visit) {
    for (const FormulaId c : nodes_[g].children) visit(c);
  });
}

bool FormulaStore::Evaluate(FormulaId f, const Assignment& assignment) const {
  return Fold<bool>(
      f,
      [&](FormulaId g) {
        if (kind(g) != Kind::kVar) return g == True();
        TBC_DCHECK(var(g) < assignment.size());
        return static_cast<bool>(assignment[var(g)]);
      },
      [](bool v) { return !v; },
      [](Kind k, bool acc, bool v) {
        return k == Kind::kAnd ? acc && v : acc || v;
      });
}

Cnf FormulaStore::ToCnfTseitin(FormulaId f) const {
  Cnf cnf(num_vars_);
  // Gate literal for each node, computed bottom-up over reachable nodes.
  // Constants get dedicated auxiliary variables asserted to their value.
  std::vector<Lit> gate(size_t{f} + 1, Lit());
  size_t next_aux = num_vars_;
  for (const FormulaId cur : ReachableAscending(f)) {
    const Node& n = nodes_[cur];
    switch (n.kind) {
      case Kind::kFalse:
      case Kind::kTrue: {
        Var aux = static_cast<Var>(next_aux++);
        Lit g = Pos(aux);
        cnf.AddClause({n.kind == Kind::kTrue ? g : ~g});
        gate[cur] = g;
        break;
      }
      case Kind::kVar:
        gate[cur] = Pos(n.var);
        break;
      case Kind::kNot:
        gate[cur] = ~gate[n.children[0]];
        break;
      case Kind::kAnd: {
        Var aux = static_cast<Var>(next_aux++);
        Lit g = Pos(aux);
        Clause big{g};
        for (FormulaId c : n.children) {
          cnf.AddClause({~g, gate[c]});  // g -> c
          big.push_back(~gate[c]);       // all c -> g
        }
        cnf.AddClause(big);
        gate[cur] = g;
        break;
      }
      case Kind::kOr: {
        Var aux = static_cast<Var>(next_aux++);
        Lit g = Pos(aux);
        Clause big{~g};
        for (FormulaId c : n.children) {
          cnf.AddClause({g, ~gate[c]});  // c -> g
          big.push_back(gate[c]);        // g -> some c
        }
        cnf.AddClause(big);
        gate[cur] = g;
        break;
      }
    }
  }
  cnf.AddClause({gate[f]});
  return cnf;
}

std::string FormulaStore::ToString(FormulaId f) const {
  const Node& n = nodes_[f];
  switch (n.kind) {
    case Kind::kFalse:
      return "false";
    case Kind::kTrue:
      return "true";
    case Kind::kVar:
      return std::string("x").append(std::to_string(n.var));
    case Kind::kNot:
      return std::string("~").append(ToString(n.children[0]));
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = n.kind == Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (i > 0) out += sep;
        out += ToString(n.children[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace tbc
