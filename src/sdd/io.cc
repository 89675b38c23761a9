#include "sdd/io.h"

#include <unordered_map>
#include <vector>

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

namespace {

Status BadLine(size_t line_no, const std::string& what) {
  return Status::InvalidInput("line " + std::to_string(line_no) + ": " + what);
}

// Strict uint32 file-id parse shared by every node line.
bool ParseFileId(const std::string& tok, uint32_t* out) {
  uint64_t wide = 0;
  if (!ParseUint64(tok, &wide) || wide > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(wide);
  return true;
}

}  // namespace

Result<SddId> ReadSdd(SddManager& mgr, const std::string& text) {
  // Map in-order vtree positions back to vtree nodes.
  std::unordered_map<uint32_t, VtreeId> vtree_at;
  for (VtreeId v = 0; v < mgr.vtree().num_nodes(); ++v) {
    vtree_at[mgr.vtree().position(v)] = v;
  }
  std::unordered_map<uint32_t, SddId> node_of;
  bool saw_header = false;
  SddId last = kInvalidSdd;
  size_t line_no = 0;
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == 'c') continue;
    const std::vector<std::string> tok = SplitWhitespace(line);
    if (tok[0] == "sdd") {
      saw_header = true;
      continue;
    }
    if (!saw_header) return BadLine(line_no, "missing sdd header");
    uint32_t file_id = 0;
    if (tok.size() >= 2 && !ParseFileId(tok[1], &file_id)) {
      return BadLine(line_no, "bad node id '" + tok[1] + "'");
    }
    if (tok[0] == "F" || tok[0] == "T") {
      if (tok.size() != 2) return BadLine(line_no, "bad constant line");
      last = tok[0] == "T" ? mgr.True() : mgr.False();
      node_of[file_id] = last;
    } else if (tok[0] == "L") {
      if (tok.size() != 4) return BadLine(line_no, "bad literal line");
      int dimacs = 0;
      if (!ParseInt(tok[3], &dimacs) || dimacs == 0 || dimacs < -(1 << 28) ||
          dimacs > (1 << 28)) {
        return BadLine(line_no, "bad literal '" + tok[3] + "'");
      }
      const Lit l = Lit::FromDimacs(dimacs);
      if (l.var() >= mgr.num_vars()) {
        return BadLine(line_no, "literal variable " + std::to_string(l.var() + 1) +
                                    " exceeds manager's " +
                                    std::to_string(mgr.num_vars()) + " variables");
      }
      last = mgr.LiteralNode(l);
      node_of[file_id] = last;
    } else if (tok[0] == "D") {
      if (tok.size() < 4) return BadLine(line_no, "bad decision line");
      uint32_t pos = 0;
      if (!ParseFileId(tok[2], &pos)) {
        return BadLine(line_no, "bad vtree position '" + tok[2] + "'");
      }
      auto vit = vtree_at.find(pos);
      if (vit == vtree_at.end()) {
        return BadLine(line_no, "unknown vtree position " + std::to_string(pos));
      }
      uint64_t k = 0;
      if (!ParseUint64(tok[3], &k) || k == 0) {
        return BadLine(line_no, "bad element count '" + tok[3] + "'");
      }
      if (tok.size() != 4 + 2 * k) {
        return BadLine(line_no, "decision arity does not match element count");
      }
      std::vector<std::pair<SddId, SddId>> elements;
      for (size_t i = 0; i < k; ++i) {
        uint32_t pid = 0, sid = 0;
        if (!ParseFileId(tok[4 + 2 * i], &pid) ||
            !ParseFileId(tok[5 + 2 * i], &sid)) {
          return BadLine(line_no, "bad element reference");
        }
        auto pit = node_of.find(pid);
        auto sit = node_of.find(sid);
        if (pit == node_of.end() || sit == node_of.end()) {
          return BadLine(line_no, "sdd forward reference");
        }
        elements.push_back({pit->second, sit->second});
      }
      // MakeDecision requires the primes to form a partition; check
      // exhaustiveness here so a malformed file cannot trip its internal
      // invariants (all-⊥ primes abort; a lone non-⊤ prime violates
      // trimming rule 1).
      SddId prime_union = mgr.False();
      for (const auto& [p, s] : elements) {
        prime_union = mgr.Disjoin(prime_union, p);
      }
      if (prime_union != mgr.True()) {
        return BadLine(line_no, "decision primes are not exhaustive");
      }
      last = mgr.MakeDecision(vit->second, std::move(elements));
      node_of[file_id] = last;
    } else {
      return BadLine(line_no, "unknown sdd line: " + std::string(line));
    }
  }
  if (last == kInvalidSdd) return Status::InvalidInput("empty sdd file");
  return last;
}

}  // namespace tbc
