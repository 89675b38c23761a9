#include "vtree/vtree.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "base/check.h"
#include "base/strings.h"

namespace tbc {

VtreeId Vtree::AddLeaf(Var v) {
  Node n;
  n.var = v;
  n.num_vars_below = 1;
  nodes_.push_back(n);
  if (leaf_of_var_.size() <= v) leaf_of_var_.resize(v + 1, kInvalidVtree);
  TBC_CHECK_MSG(leaf_of_var_[v] == kInvalidVtree, "variable appears twice in vtree");
  leaf_of_var_[v] = static_cast<VtreeId>(nodes_.size() - 1);
  return leaf_of_var_[v];
}

VtreeId Vtree::AddInternal(VtreeId l, VtreeId r) {
  Node n;
  n.left = l;
  n.right = r;
  n.num_vars_below = nodes_[l].num_vars_below + nodes_[r].num_vars_below;
  nodes_.push_back(n);
  const VtreeId id = static_cast<VtreeId>(nodes_.size() - 1);
  nodes_[l].parent = id;
  nodes_[r].parent = id;
  return id;
}

void Vtree::Finalize() {
  // Assign in-order positions iteratively.
  uint32_t next = 0;
  std::vector<std::pair<VtreeId, int>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto& [v, state] = stack.back();
    if (IsLeaf(v)) {
      nodes_[v].position = next++;
      stack.pop_back();
    } else if (state == 0) {
      state = 1;
      stack.push_back({nodes_[v].left, 0});
    } else if (state == 1) {
      nodes_[v].position = next++;
      state = 2;
      stack.push_back({nodes_[v].right, 0});
    } else {
      stack.pop_back();
    }
  }
}

Vtree Vtree::RightLinear(const std::vector<Var>& order) {
  TBC_CHECK(!order.empty());
  Vtree t;
  VtreeId acc = t.AddLeaf(order.back());
  for (size_t i = order.size() - 1; i-- > 0;) {
    acc = t.AddInternal(t.AddLeaf(order[i]), acc);
  }
  t.root_ = acc;
  t.Finalize();
  return t;
}

Vtree Vtree::LeftLinear(const std::vector<Var>& order) {
  TBC_CHECK(!order.empty());
  Vtree t;
  VtreeId acc = t.AddLeaf(order.front());
  for (size_t i = 1; i < order.size(); ++i) {
    acc = t.AddInternal(acc, t.AddLeaf(order[i]));
  }
  t.root_ = acc;
  t.Finalize();
  return t;
}

VtreeId Vtree::BuildBalanced(const std::vector<Var>& order, size_t lo, size_t hi) {
  if (hi - lo == 1) return AddLeaf(order[lo]);
  const size_t mid = lo + (hi - lo + 1) / 2;
  const VtreeId l = BuildBalanced(order, lo, mid);
  const VtreeId r = BuildBalanced(order, mid, hi);
  return AddInternal(l, r);
}

Vtree Vtree::Balanced(const std::vector<Var>& order) {
  TBC_CHECK(!order.empty());
  Vtree t;
  t.root_ = t.BuildBalanced(order, 0, order.size());
  t.Finalize();
  return t;
}

Vtree Vtree::Constrained(const std::vector<Var>& top, const std::vector<Var>& bottom) {
  TBC_CHECK(!bottom.empty());
  Vtree t;
  VtreeId acc = t.BuildBalanced(bottom, 0, bottom.size());
  for (size_t i = top.size(); i-- > 0;) {
    acc = t.AddInternal(t.AddLeaf(top[i]), acc);
  }
  t.root_ = acc;
  t.Finalize();
  return t;
}

std::vector<Var> Vtree::IdentityOrder(size_t n) {
  std::vector<Var> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<Var>(i);
  return order;
}

bool Vtree::IsAncestorOrSelf(VtreeId a, VtreeId b) const {
  // A subtree with k leaves holds 2k - 1 nodes in one contiguous in-order
  // range; an internal node sits right after its left subtree's range.
  const Node& n = nodes_[a];
  const uint32_t first =
      IsLeaf(a) ? n.position
                : n.position - (2 * nodes_[n.left].num_vars_below - 1);
  const uint32_t pos = nodes_[b].position;
  return first <= pos && pos <= first + 2 * (n.num_vars_below - 1);
}

VtreeId Vtree::Lca(VtreeId a, VtreeId b) const {
  while (!IsAncestorOrSelf(a, b)) a = nodes_[a].parent;
  return a;
}

uint32_t Vtree::Depth(VtreeId v) const {
  uint32_t d = 0;
  while (nodes_[v].parent != kInvalidVtree) {
    v = nodes_[v].parent;
    ++d;
  }
  return d;
}

std::vector<Var> Vtree::VarsBelow(VtreeId v) const {
  std::vector<Var> out;
  std::vector<VtreeId> stack = {v};
  while (!stack.empty()) {
    VtreeId cur = stack.back();
    stack.pop_back();
    if (IsLeaf(cur)) {
      out.push_back(nodes_[cur].var);
    } else {
      stack.push_back(nodes_[cur].right);
      stack.push_back(nodes_[cur].left);
    }
  }
  return out;
}

std::string Vtree::ToString(VtreeId v) const {
  if (IsLeaf(v)) return std::to_string(nodes_[v].var);
  return std::string("(")
      .append(ToString(nodes_[v].left))
      .append(" ")
      .append(ToString(nodes_[v].right))
      .append(")");
}

std::string Vtree::ToFileString() const {
  // Emit children before parents so the root is the final line; ids are
  // renumbered to emission order as the SDD-library format expects.
  std::string out = "vtree " + std::to_string(nodes_.size()) + "\n";
  std::vector<uint32_t> file_id(nodes_.size(), 0);
  uint32_t next = 0;
  std::vector<std::pair<VtreeId, int>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto& [v, state] = stack.back();
    if (IsLeaf(v)) {
      file_id[v] = next++;
      out += "L " + std::to_string(file_id[v]) + " " +
             std::to_string(nodes_[v].var + 1) + "\n";
      stack.pop_back();
    } else if (state == 0) {
      state = 1;
      stack.push_back({nodes_[v].left, 0});
    } else if (state == 1) {
      state = 2;
      stack.push_back({nodes_[v].right, 0});
    } else {
      file_id[v] = next++;
      out += "I " + std::to_string(file_id[v]) + " " +
             std::to_string(file_id[nodes_[v].left]) + " " +
             std::to_string(file_id[nodes_[v].right]) + "\n";
      stack.pop_back();
    }
  }
  return out;
}

Result<Vtree> Vtree::Parse(const std::string& text) {
  Vtree t;
  std::unordered_map<uint64_t, VtreeId> node_of_file_id;
  bool saw_header = false;
  VtreeId last = kInvalidVtree;
  size_t line_no = 0;
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    const std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == 'c') continue;
    const std::vector<std::string> tok = SplitWhitespace(line);
    uint64_t id = 0, a = 0, b = 0;
    const bool numeric =
        tok.size() >= 3 && ParseUint64(tok[1], &id) && ParseUint64(tok[2], &a) &&
        (tok.size() == 3 || ParseUint64(tok[3], &b));
    if (tok[0] == "vtree") {
      saw_header = true;
    } else if (tok[0] == "L") {
      // Variables are capped as in DIMACS: the leaf table is sized by the
      // largest one.
      if (!numeric || tok.size() != 3 || a < 1 || a > kMaxDimacsVar) {
        return BadLine(line_no, "bad vtree leaf line");
      }
      const Var var = static_cast<Var>(a - 1);
      // AddLeaf aborts on a repeated variable; adversarial files must get
      // a typed rejection instead.
      if (var < t.leaf_of_var_.size() && t.leaf_of_var_[var] != kInvalidVtree) {
        return BadLine(line_no, "variable appears in two vtree leaves");
      }
      last = t.AddLeaf(var);
      node_of_file_id[id] = last;
    } else if (tok[0] == "I") {
      if (!numeric || tok.size() != 4) {
        return BadLine(line_no, "bad vtree internal line");
      }
      auto lit = node_of_file_id.find(a);
      auto rit = node_of_file_id.find(b);
      if (lit == node_of_file_id.end() || rit == node_of_file_id.end()) {
        return BadLine(line_no, "vtree forward reference");
      }
      // Every node has one parent, so in-order positions are a
      // permutation of the node ids (ParseSddFileGraph indexes by them).
      if (lit->second == rit->second || t.nodes_[lit->second].parent != kInvalidVtree ||
          t.nodes_[rit->second].parent != kInvalidVtree) {
        return BadLine(line_no, "vtree node used twice as a child");
      }
      last = t.AddInternal(lit->second, rit->second);
      node_of_file_id[id] = last;
    } else {
      return BadLine(line_no, "unknown vtree line");
    }
  }
  if (!saw_header) return Status::InvalidInput("missing vtree header");
  if (last == kInvalidVtree) return Status::InvalidInput("empty vtree");
  t.root_ = last;
  // The last-defined node is the root only if every other node hangs off
  // it. A file defining a forest used to be accepted silently, with whole
  // subtrees invisible to position/LCA queries.
  for (VtreeId v = 0; v < t.nodes_.size(); ++v) {
    if (v != t.root_ && t.nodes_[v].parent == kInvalidVtree) {
      return Status::InvalidInput(
          "vtree file defines a forest: node defined on line-order index " +
          std::to_string(v) + " is not reachable from the root");
    }
  }
  t.Finalize();
  return t;
}

bool Vtree::RotateRightAt(VtreeId v) {
  if (IsLeaf(v) || IsLeaf(nodes_[v].left)) return false;
  const VtreeId l = nodes_[v].left;
  const VtreeId a = nodes_[l].left;
  const VtreeId b = nodes_[l].right;
  const VtreeId c = nodes_[v].right;
  nodes_[v].left = a;
  nodes_[v].right = l;
  nodes_[l].left = b;
  nodes_[l].right = c;
  nodes_[a].parent = v;
  nodes_[c].parent = l;  // b keeps parent l; l keeps parent v
  nodes_[l].num_vars_below =
      nodes_[b].num_vars_below + nodes_[c].num_vars_below;
  // In-order [a] l [b] v [c] becomes [a] v [b] l [c]: only v and l trade
  // positions, the a/b/c subtrees keep theirs.
  std::swap(nodes_[v].position, nodes_[l].position);
  return true;
}

bool Vtree::RotateLeftAt(VtreeId v) {
  if (IsLeaf(v) || IsLeaf(nodes_[v].right)) return false;
  const VtreeId r = nodes_[v].right;
  const VtreeId a = nodes_[v].left;
  const VtreeId b = nodes_[r].left;
  const VtreeId c = nodes_[r].right;
  nodes_[v].left = r;
  nodes_[v].right = c;
  nodes_[r].left = a;
  nodes_[r].right = b;
  nodes_[a].parent = r;
  nodes_[c].parent = v;  // b keeps parent r; r keeps parent v
  nodes_[r].num_vars_below =
      nodes_[a].num_vars_below + nodes_[b].num_vars_below;
  std::swap(nodes_[v].position, nodes_[r].position);
  return true;
}

bool Vtree::SwapChildrenAt(VtreeId v) {
  if (IsLeaf(v)) return false;
  // A subtree occupies a contiguous in-order position range starting at
  // its leftmost leaf; re-walk the swapped subtree from that base.
  VtreeId leftmost = v;
  while (!IsLeaf(leftmost)) leftmost = nodes_[leftmost].left;
  uint32_t next = nodes_[leftmost].position;
  std::swap(nodes_[v].left, nodes_[v].right);
  std::vector<std::pair<VtreeId, int>> stack = {{v, 0}};
  while (!stack.empty()) {
    auto& [n, state] = stack.back();
    if (IsLeaf(n)) {
      nodes_[n].position = next++;
      stack.pop_back();
    } else if (state == 0) {
      state = 1;
      stack.push_back({nodes_[n].left, 0});
    } else if (state == 1) {
      nodes_[n].position = next++;
      state = 2;
      stack.push_back({nodes_[n].right, 0});
    } else {
      stack.pop_back();
    }
  }
  return true;
}

Vtree Vtree::Random(std::vector<Var> vars, Rng& rng) {
  TBC_CHECK(!vars.empty());
  // Shuffle, then build with uniform random split points.
  for (size_t i = vars.size(); i > 1; --i) {
    std::swap(vars[i - 1], vars[rng.Below(i)]);
  }
  Vtree t;
  std::function<VtreeId(size_t, size_t)> build = [&](size_t lo, size_t hi) -> VtreeId {
    if (hi - lo == 1) return t.AddLeaf(vars[lo]);
    const size_t mid = lo + 1 + rng.Below(hi - lo - 1);
    const VtreeId l = build(lo, mid);
    const VtreeId r = build(mid, hi);
    return t.AddInternal(l, r);
  };
  t.root_ = build(0, vars.size());
  t.Finalize();
  return t;
}

}  // namespace tbc
