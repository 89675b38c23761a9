#include "sdd/io.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/check.h"
#include "base/strings.h"

namespace tbc {

std::string WriteSdd(const SddManager& mgr, SddId f) {
  // File ids are postorder positions, elements taken first to last: the
  // numbering a recursive emitter produces, without its stack depth.
  std::vector<uint32_t> file_id(mgr.num_nodes());
  std::string body;
  uint32_t next = 0;
  mgr.ForEachPostorder(f, /*reverse=*/false, [&](SddId g) {
    const uint32_t id = next++;
    file_id[g] = id;
    if (mgr.IsConstant(g)) {
      body += std::string(g == mgr.True() ? "T " : "F ") + std::to_string(id) + "\n";
      return;
    }
    const std::string head = std::to_string(id) + " " +
                             std::to_string(mgr.vtree().position(mgr.vtree_node(g)));
    if (mgr.IsLiteral(g)) {
      body += "L " + head + " " + std::to_string(mgr.literal(g).ToDimacs()) + "\n";
      return;
    }
    body += "D " + head + " " + std::to_string(mgr.elements(g).size());
    for (const auto& [p, s] : mgr.elements(g)) {
      body.append(" ").append(std::to_string(file_id[mgr.Resolve(p)]));
      body.append(" ").append(std::to_string(file_id[mgr.Resolve(s)]));
    }
    body += "\n";
  });
  return "sdd " + std::to_string(next) + "\n" + body;
}

Result<std::vector<SddFileNode>> ParseSddFileGraph(const std::string& text,
                                                   const Vtree& vtree) {
  // In-order positions are a permutation of the vtree's node ids: every
  // Vtree is a tree (Vtree::Parse refuses a node under two parents).
  std::vector<VtreeId> vtree_at(vtree.num_nodes());
  for (VtreeId v = 0; v < vtree.num_nodes(); ++v) {
    TBC_CHECK(vtree.position(v) < vtree_at.size());
    vtree_at[vtree.position(v)] = v;
  }
  std::vector<SddFileNode> graph;
  std::unordered_map<uint32_t, uint32_t> index_of_file_id;
  bool saw_header = false;
  size_t line_no = 0;
  auto bad = [&](const std::string& what) { return BadLine(line_no, what); };
  auto read_u32 = [](const std::string& tok, uint32_t* out) {
    uint64_t wide = 0;
    if (!ParseUint64(tok, &wide) || wide > UINT32_MAX) return false;
    *out = static_cast<uint32_t>(wide);
    return true;
  };
  auto read_vtree = [&](const std::string& tok, VtreeId* out) {
    uint32_t pos = 0;
    if (!read_u32(tok, &pos) || pos >= vtree_at.size()) return false;
    *out = vtree_at[pos];
    return true;
  };
  auto read_ref = [&](const std::string& tok, uint32_t* out) {
    uint32_t id = 0;
    if (!read_u32(tok, &id)) return false;
    auto it = index_of_file_id.find(id);
    if (it == index_of_file_id.end()) return false;
    *out = it->second;
    return true;
  };
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == 'c') continue;
    const std::vector<std::string> tok = SplitWhitespace(line);
    if (tok[0] == "sdd") {
      saw_header = true;
      continue;
    }
    if (!saw_header) return bad("missing sdd header");
    SddFileNode node;
    node.line = line_no;
    if (tok.size() < 2 || !read_u32(tok[1], &node.file_id)) {
      return bad("bad node id");
    }
    if (tok[0] == "T" || tok[0] == "F") {
      if (tok.size() != 2) return bad("bad constant line");
      node.kind = tok[0][0];
    } else if (tok[0] == "L") {
      if (tok.size() != 4) return bad("bad literal line");
      node.kind = 'L';
      if (!read_vtree(tok[2], &node.vtree)) return bad("bad vtree position");
      int dimacs = 0;
      if (!ParseInt(tok[3], &dimacs) || dimacs == 0) return bad("bad literal");
      const int64_t var = dimacs < 0 ? -int64_t{dimacs} : dimacs;
      if (static_cast<uint64_t>(var) > vtree.num_vars()) {
        return bad("literal variable exceeds the vtree's " +
                   std::to_string(vtree.num_vars()) + " variables");
      }
      node.lit = Lit::FromDimacs(dimacs);
    } else if (tok[0] == "D") {
      if (tok.size() < 4) return bad("bad decision line");
      node.kind = 'D';
      if (!read_vtree(tok[2], &node.vtree)) return bad("bad vtree position");
      uint64_t k = 0;
      if (!ParseUint64(tok[3], &k)) return bad("bad element count");
      if (tok.size() % 2 != 0 || k != (tok.size() - 4) / 2) {
        return bad("decision arity does not match element count");
      }
      for (size_t i = 0; i < k; ++i) {
        uint32_t p = 0, s = 0;
        if (!read_ref(tok[4 + 2 * i], &p) || !read_ref(tok[5 + 2 * i], &s)) {
          return bad("element names no earlier node");
        }
        node.elements.push_back({p, s});
      }
    } else {
      return bad("unknown sdd line: " + std::string(line));
    }
    index_of_file_id[node.file_id] = static_cast<uint32_t>(graph.size());
    graph.push_back(std::move(node));
  }
  if (graph.empty()) return Status::InvalidInput("empty sdd file");
  return graph;
}

Result<SddId> ReadSdd(SddManager& mgr, const std::string& text) {
  const Vtree& vtree = mgr.vtree();
  TBC_ASSIGN_OR_RETURN(const std::vector<SddFileNode> graph,
                       ParseSddFileGraph(text, vtree));
  std::vector<SddId> built(graph.size());
  for (size_t n = 0; n < graph.size(); ++n) {
    const SddFileNode& node = graph[n];
    std::vector<SddFaultAt> faults;
    if (node.kind == 'T' || node.kind == 'F') {
      built[n] = node.kind == 'T' ? mgr.True() : mgr.False();
    } else if (node.kind == 'L') {
      faults = CheckSddLiteral(vtree, node.vtree, node.lit);
      if (faults.empty()) built[n] = mgr.LiteralNode(node.lit);
    } else {
      std::vector<SddElementRef> refs;
      std::vector<std::pair<SddId, SddId>> elements;
      for (const auto& [p, s] : node.elements) {
        refs.push_back({graph[p].vtree, graph[s].vtree, built[p] == mgr.False(),
                        built[p]});
        elements.push_back({built[p], built[s]});
      }
      // MakeDecision assumes an SDD node: refuse anything else first.
      faults = CheckSddElements(vtree, node.vtree, refs, &mgr);
      if (faults.empty()) built[n] = mgr.MakeDecision(node.vtree, std::move(elements));
    }
    if (!faults.empty()) {
      const std::string witness = SddFaultWitness(faults.front());
      const char* what = SddFaultMessage(faults.front().fault);
      return BadLine(node.line, witness.empty() ? what : witness + ": " + what);
    }
  }
  return built.back();
}

}  // namespace tbc
