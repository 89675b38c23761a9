#include "nnf/io.h"

#include <vector>

#include "base/strings.h"

namespace tbc {

std::string WriteNnf(NnfManager& mgr, NnfId root, size_t num_vars) {
  const std::vector<NnfId> order = mgr.TopologicalOrder(root);
  std::vector<size_t> line_of(size_t{root} + 1);
  size_t num_edges = 0;
  std::string body;
  for (size_t line = 0; line < order.size(); ++line) {
    const NnfId n = order[line];
    line_of[n] = line;
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        body += "O 0 0\n";
        break;
      case NnfManager::Kind::kTrue:
        body += "A 0\n";
        break;
      case NnfManager::Kind::kLiteral:
        body += "L " + std::to_string(mgr.lit(n).ToDimacs()) + "\n";
        break;
      case NnfManager::Kind::kAnd: {
        body += "A " + std::to_string(mgr.children(n).size());
        for (NnfId c : mgr.children(n)) {
          body.append(" ").append(std::to_string(line_of[c]));
          ++num_edges;
        }
        body += "\n";
        break;
      }
      case NnfManager::Kind::kOr: {
        body += "O 0 " + std::to_string(mgr.children(n).size());
        for (NnfId c : mgr.children(n)) {
          body.append(" ").append(std::to_string(line_of[c]));
          ++num_edges;
        }
        body += "\n";
        break;
      }
    }
  }
  return "nnf " + std::to_string(order.size()) + " " + std::to_string(num_edges) +
         " " + std::to_string(num_vars) + "\n" + body;
}

namespace {

// Parses the child references of an A/O line starting at token `first`.
Status ParseChildren(const std::vector<std::string>& tok, size_t first,
                     size_t count, const std::vector<NnfId>& node_of_line,
                     size_t line_no, std::vector<NnfId>* kids) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t ref = 0;
    if (!ParseUint64(tok[first + i], &ref)) {
      return BadLine(line_no, "bad child reference '" + tok[first + i] + "'");
    }
    if (ref >= node_of_line.size()) {
      return BadLine(line_no,
                     "forward or out-of-range reference " + std::to_string(ref));
    }
    kids->push_back(node_of_line[ref]);
  }
  return Status::Ok();
}

}  // namespace

Result<NnfId> ReadNnf(NnfManager& mgr, const std::string& text,
                      size_t* num_vars_out) {
  std::vector<NnfId> node_of_line;
  bool saw_header = false;
  uint64_t decl_nodes = 0;
  uint64_t decl_edges = 0;
  uint64_t decl_vars = 0;
  uint64_t seen_edges = 0;
  size_t line_no = 0;
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == 'c') continue;
    std::vector<std::string> tok = SplitWhitespace(line);
    if (tok[0] == "nnf") {
      if (saw_header) return BadLine(line_no, "duplicate nnf header");
      if (tok.size() != 4 || !ParseUint64(tok[1], &decl_nodes) ||
          !ParseUint64(tok[2], &decl_edges) ||
          !ParseUint64(tok[3], &decl_vars) || decl_vars > kMaxDimacsVar) {
        return BadLine(line_no, "bad nnf header");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) return BadLine(line_no, "missing nnf header");
    if (node_of_line.size() == decl_nodes) {
      return BadLine(line_no, "more nodes than the header declares");
    }
    if (tok[0] == "L") {
      if (tok.size() != 2) return BadLine(line_no, "bad L line");
      int dimacs = 0;
      if (!ParseInt(tok[1], &dimacs) || dimacs == 0 ||
          dimacs < -kMaxDimacsVar || dimacs > kMaxDimacsVar) {
        return BadLine(line_no, "bad literal '" + tok[1] + "'");
      }
      if (static_cast<uint64_t>(dimacs < 0 ? -dimacs : dimacs) > decl_vars) {
        return BadLine(line_no, "literal '" + tok[1] +
                                    "' outside the declared variable count");
      }
      node_of_line.push_back(mgr.Literal(Lit::FromDimacs(dimacs)));
    } else if (tok[0] == "A") {
      if (tok.size() < 2) return BadLine(line_no, "bad A line");
      uint64_t count = 0;
      if (!ParseUint64(tok[1], &count)) {
        return BadLine(line_no, "bad A arity '" + tok[1] + "'");
      }
      if (tok.size() != 2 + count) {
        return BadLine(line_no, "A arity does not match child count");
      }
      std::vector<NnfId> kids;
      TBC_RETURN_IF_ERROR(
          ParseChildren(tok, 2, count, node_of_line, line_no, &kids));
      seen_edges += count;
      node_of_line.push_back(mgr.And(std::move(kids)));
    } else if (tok[0] == "O") {
      if (tok.size() < 3) return BadLine(line_no, "bad O line");
      // tok[1] is c2d's decision variable (0 = none). It is advisory for
      // evaluation but still part of the format: reject garbage there
      // instead of silently skipping the token.
      uint64_t decision_var = 0;
      if (!ParseUint64(tok[1], &decision_var) || decision_var > decl_vars) {
        return BadLine(line_no,
                       "bad O decision variable '" + tok[1] + "'");
      }
      uint64_t count = 0;
      if (!ParseUint64(tok[2], &count)) {
        return BadLine(line_no, "bad O arity '" + tok[2] + "'");
      }
      if (tok.size() != 3 + count) {
        return BadLine(line_no, "O arity does not match child count");
      }
      std::vector<NnfId> kids;
      TBC_RETURN_IF_ERROR(
          ParseChildren(tok, 3, count, node_of_line, line_no, &kids));
      seen_edges += count;
      node_of_line.push_back(mgr.Or(std::move(kids)));
    } else {
      return BadLine(line_no, "unknown nnf line: " + std::string(line));
    }
  }
  if (node_of_line.empty()) return Status::InvalidInput("empty nnf file");
  if (node_of_line.size() != decl_nodes) {
    // A file cut short still ends in a structurally valid line, and "last
    // line is root" would silently hand back the wrong circuit. The header
    // makes truncation detectable; use it.
    return Status::InvalidInput(
        "node count mismatch: header declares " + std::to_string(decl_nodes) +
        ", body has " + std::to_string(node_of_line.size()));
  }
  if (seen_edges != decl_edges) {
    return Status::InvalidInput(
        "edge count mismatch: header declares " + std::to_string(decl_edges) +
        ", body has " + std::to_string(seen_edges));
  }
  if (num_vars_out != nullptr) *num_vars_out = decl_vars;
  return node_of_line.back();
}

}  // namespace tbc
