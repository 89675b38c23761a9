#include "certify/certificate.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/observability.h"
#include "base/strings.h"

namespace tbc {

namespace {

// A DIMACS integer token whose magnitude is within the variable cap.
bool ParseDimacsInt(std::string_view token, int* out) {
  return ParseInt(token, out) && *out >= -kMaxDimacsVar &&
         *out <= kMaxDimacsVar;
}

void AppendBranch(const CertBranch& branch, const char* keyword,
                  std::string* out) {
  out->append(keyword);
  if (branch.conflict) {
    out->append(" c\n");
    return;
  }
  out->append(" ").append(std::to_string(branch.node));
  out->append(" ").append(std::to_string(branch.comps.size()));
  for (uint32_t id : branch.comps) {
    out->append(" ").append(std::to_string(id));
  }
  out->append("\n");
}

void AppendNnfSection(const NnfManager& mgr, NnfId root, std::string* out) {
  out->append("nnf ").append(std::to_string(mgr.num_nodes()));
  out->append(" ").append(std::to_string(root)).append("\n");
  for (NnfId n = 0; n < mgr.num_nodes(); ++n) {
    switch (mgr.kind(n)) {
      case NnfManager::Kind::kFalse:
        out->append("F\n");
        break;
      case NnfManager::Kind::kTrue:
        out->append("T\n");
        break;
      case NnfManager::Kind::kLiteral:
        out->append("L ").append(std::to_string(mgr.lit(n).ToDimacs()));
        out->append("\n");
        break;
      case NnfManager::Kind::kAnd:
      case NnfManager::Kind::kOr: {
        out->append(mgr.kind(n) == NnfManager::Kind::kAnd ? "A " : "O ");
        const Span<const NnfId> kids = mgr.children(n);
        out->append(std::to_string(kids.size()));
        for (NnfId k : kids) out->append(" ").append(std::to_string(k));
        out->append("\n");
        break;
      }
    }
  }
}

// Line cursor over the certificate text; keeps a 1-based line number for
// error messages and skips blank lines.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : lines_(SplitChar(text, '\n')) {}

  bool Next(std::vector<std::string>* tokens) {
    while (pos_ < lines_.size()) {
      ++line_number_;
      std::string_view line = StripWhitespace(lines_[pos_++]);
      if (line.empty()) continue;
      *tokens = SplitWhitespace(line);
      return true;
    }
    return false;
  }

  // Reads a declared record count, refusing one above the number of lines
  // left: no count sizes an allocation beyond what the text can fill.
  bool ReadCount(std::string_view token, uint64_t* count) const {
    return ParseUint64(token, count) && *count <= lines_.size() - pos_;
  }

  Status Err(const std::string& message) const {
    return Status::InvalidInput("certificate line " +
                                std::to_string(line_number_) + ": " + message);
  }

 private:
  std::vector<std::string> lines_;
  size_t pos_ = 0;
  size_t line_number_ = 0;
};

Status ParseBranchTokens(const std::vector<std::string>& tokens,
                         const LineReader& reader, size_t num_comps,
                         CertBranch* out) {
  if (tokens.size() == 2 && tokens[1] == "c") {
    out->conflict = true;
    return Status::Ok();
  }
  uint64_t node = 0;
  uint64_t count = 0;
  if (tokens.size() < 3 || !ParseUint64(tokens[1], &node) ||
      !ParseUint64(tokens[2], &count) || tokens.size() != 3 + count) {
    return reader.Err("malformed branch record");
  }
  out->conflict = false;
  out->node = static_cast<NnfId>(node);
  out->comps.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!ParseUint64(tokens[3 + i], &id) || id >= num_comps) {
      return reader.Err("branch references unknown component");
    }
    out->comps.push_back(static_cast<uint32_t>(id));
  }
  return Status::Ok();
}

Status ParseNnfSection(LineReader& reader, std::vector<std::string>& tokens,
                       Certificate* cert) {
  uint64_t num_nodes = 0;
  uint64_t root = 0;
  if (tokens.size() != 3 || tokens[0] != "nnf" ||
      !ParseUint64(tokens[1], &num_nodes) || !ParseUint64(tokens[2], &root)) {
    return reader.Err("expected 'nnf <nodes> <root>'");
  }
  if (num_nodes < 2 || root >= num_nodes) {
    return reader.Err("nnf root/size out of range");
  }
  for (NnfId expect = 0; expect < num_nodes; ++expect) {
    if (!reader.Next(&tokens)) return reader.Err("truncated nnf node table");
    NnfId got = kInvalidNnf;
    if (tokens[0] == "F" && tokens.size() == 1) {
      got = cert->nnf.False();
    } else if (tokens[0] == "T" && tokens.size() == 1) {
      got = cert->nnf.True();
    } else if (tokens[0] == "L" && tokens.size() == 2) {
      int dimacs = 0;
      if (!ParseDimacsInt(tokens[1], &dimacs) || dimacs == 0) {
        return reader.Err("bad literal node");
      }
      got = cert->nnf.Literal(Lit::FromDimacs(dimacs));
    } else if ((tokens[0] == "A" || tokens[0] == "O") && tokens.size() >= 2) {
      uint64_t count = 0;
      if (!ParseUint64(tokens[1], &count) || tokens.size() != 2 + count) {
        return reader.Err("malformed gate node");
      }
      std::vector<NnfId> kids;
      kids.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        uint64_t k = 0;
        if (!ParseUint64(tokens[2 + i], &k) || k >= expect) {
          return reader.Err("gate child id out of range");
        }
        kids.push_back(static_cast<NnfId>(k));
      }
      got = tokens[0] == "A" ? cert->nnf.And(std::move(kids))
                             : cert->nnf.Or(std::move(kids));
    } else {
      return reader.Err("unrecognized nnf node line");
    }
    // The manager replays its own simplification rules; a node that lands
    // on a different id is not in canonical form (or a duplicate), and the
    // trace ids would be meaningless.
    if (got != expect) return reader.Err("nnf node is not canonical");
  }
  cert->root = static_cast<NnfId>(root);
  return Status::Ok();
}

Status ParseDdnnfTrace(LineReader& reader, std::vector<std::string>& tokens,
                       Certificate* cert) {
  if (tokens[0] == "notrace" && tokens.size() == 1) return Status::Ok();
  uint64_t num_comps = 0;
  if (tokens.size() != 2 || tokens[0] != "trace" ||
      !reader.ReadCount(tokens[1], &num_comps)) {
    return reader.Err("expected 'trace <comps>' or 'notrace' (<comps> at "
                      "most the lines that follow)");
  }
  cert->ddnnf.comps.resize(num_comps);
  for (uint64_t i = 0; i < num_comps; ++i) {
    if (!reader.Next(&tokens)) return reader.Err("truncated trace");
    uint64_t var = 0;
    uint64_t node = 0;
    if (tokens.size() != 3 || tokens[0] != "comp" ||
        !ParseUint64(tokens[1], &var) || !ParseUint64(tokens[2], &node) ||
        node >= cert->nnf.num_nodes()) {
      return reader.Err("malformed component record");
    }
    CertComp& comp = cert->ddnnf.comps[i];
    comp.decision = static_cast<Var>(var);
    comp.node = static_cast<NnfId>(node);
    for (CertBranch* branch : {&comp.hi, &comp.lo}) {
      if (!reader.Next(&tokens) || tokens.empty() || tokens[0] != "b") {
        return reader.Err("expected branch record");
      }
      TBC_RETURN_IF_ERROR(
          ParseBranchTokens(tokens, reader, num_comps, branch));
      if (!branch->conflict && branch->node >= cert->nnf.num_nodes()) {
        return reader.Err("branch node id out of range");
      }
    }
  }
  if (!reader.Next(&tokens) || tokens.empty() || tokens[0] != "top") {
    return reader.Err("expected top-level branch record");
  }
  TBC_RETURN_IF_ERROR(
      ParseBranchTokens(tokens, reader, num_comps, &cert->ddnnf.top));
  if (!cert->ddnnf.top.conflict &&
      cert->ddnnf.top.node >= cert->nnf.num_nodes()) {
    return reader.Err("top node id out of range");
  }
  return Status::Ok();
}

Status ParseObddSection(LineReader& reader, std::vector<std::string>& tokens,
                        Certificate* cert) {
  uint64_t order_len = 0;
  if (tokens.size() < 2 || tokens[0] != "order" ||
      !ParseUint64(tokens[1], &order_len) || tokens.size() != 2 + order_len) {
    return reader.Err("expected 'order <n> <vars...>'");
  }
  ObddTrace& trace = cert->obdd;
  trace.order.reserve(order_len);
  for (size_t i = 0; i < order_len; ++i) {
    uint64_t v = 0;
    if (!ParseUint64(tokens[2 + i], &v)) return reader.Err("bad order entry");
    trace.order.push_back(static_cast<Var>(v));
  }
  uint64_t num_nodes = 0;
  uint64_t root = 0;
  if (!reader.Next(&tokens) || tokens.size() != 3 || tokens[0] != "obdd" ||
      !reader.ReadCount(tokens[1], &num_nodes) ||
      !ParseUint64(tokens[2], &root) || num_nodes < 2 || root >= num_nodes) {
    return reader.Err("expected 'obdd <nodes> <root>' (<nodes> at most the "
                      "lines that follow)");
  }
  trace.root = static_cast<uint32_t>(root);
  trace.nodes.resize(num_nodes);
  trace.nodes[0] = {kInvalidVar, 0, 0};
  trace.nodes[1] = {kInvalidVar, 1, 1};
  for (uint64_t id = 2; id < num_nodes; ++id) {
    uint64_t var = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (!reader.Next(&tokens) || tokens.size() != 3 ||
        !ParseUint64(tokens[0], &var) || !ParseUint64(tokens[1], &lo) ||
        !ParseUint64(tokens[2], &hi) || lo >= id || hi >= id) {
      return reader.Err("malformed obdd node (children must precede)");
    }
    trace.nodes[id] = {static_cast<Var>(var), static_cast<uint32_t>(lo),
                       static_cast<uint32_t>(hi)};
  }
  uint64_t num_steps = 0;
  if (!reader.Next(&tokens) || tokens.size() != 2 || tokens[0] != "steps" ||
      !reader.ReadCount(tokens[1], &num_steps)) {
    return reader.Err("expected 'steps <n>' (<n> at most the lines that "
                      "follow)");
  }
  trace.steps.reserve(num_steps);
  for (uint64_t i = 0; i < num_steps; ++i) {
    uint64_t f = 0;
    uint64_t g = 0;
    uint64_t r = 0;
    if (!reader.Next(&tokens) || tokens.size() != 3 ||
        !ParseUint64(tokens[0], &f) || !ParseUint64(tokens[1], &g) ||
        !ParseUint64(tokens[2], &r) || f >= num_nodes || g >= num_nodes ||
        r >= num_nodes) {
      return reader.Err("malformed apply step");
    }
    trace.steps.push_back({static_cast<uint32_t>(f), static_cast<uint32_t>(g),
                           static_cast<uint32_t>(r)});
  }
  uint64_t num_links = 0;
  if (!reader.Next(&tokens) || tokens.size() != 2 || tokens[0] != "chain" ||
      !reader.ReadCount(tokens[1], &num_links)) {
    return reader.Err("expected 'chain <n>' (<n> at most the lines that "
                      "follow)");
  }
  trace.chain.reserve(num_links);
  for (uint64_t i = 0; i < num_links; ++i) {
    uint64_t idx = 0;
    uint64_t clause = 0;
    uint64_t acc = 0;
    if (!reader.Next(&tokens) || tokens.size() != 3 ||
        !ParseUint64(tokens[0], &idx) || !ParseUint64(tokens[1], &clause) ||
        !ParseUint64(tokens[2], &acc) || idx >= cert->cnf.num_clauses() ||
        clause >= num_nodes || acc >= num_nodes) {
      return reader.Err("malformed chain link");
    }
    trace.chain.push_back({static_cast<uint32_t>(idx),
                           static_cast<uint32_t>(clause),
                           static_cast<uint32_t>(acc)});
  }
  return Status::Ok();
}

}  // namespace

const char* CertificateKindName(Certificate::Kind kind) {
  switch (kind) {
    case Certificate::Kind::kDdnnf:
      return "ddnnf";
    case Certificate::Kind::kObdd:
      return "obdd";
    case Certificate::Kind::kSdd:
      return "sdd";
  }
  return "?";
}

bool ParseBigUint(const std::string& text, BigUint* out) {
  if (text.empty()) return false;
  BigUint value;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value *= BigUint(10);
    value += BigUint(static_cast<uint64_t>(c - '0'));
  }
  *out = std::move(value);
  return true;
}

std::string WriteCertificate(const Certificate& cert) {
  std::string out;
  out.append("tbc-cert 1 ").append(CertificateKindName(cert.kind));
  out.append("\n");
  out.append("count ").append(cert.claimed_count.ToString()).append("\n");
  out.append("cnf ").append(std::to_string(cert.cnf.num_vars()));
  out.append(" ").append(std::to_string(cert.cnf.num_clauses())).append("\n");
  for (const Clause& clause : cert.cnf.clauses()) {
    for (Lit l : clause) {
      out.append(std::to_string(l.ToDimacs())).append(" ");
    }
    out.append("0\n");
  }
  switch (cert.kind) {
    case Certificate::Kind::kDdnnf: {
      AppendNnfSection(cert.nnf, cert.root, &out);
      const bool have_trace = !cert.ddnnf.comps.empty() ||
                              cert.ddnnf.top.conflict ||
                              cert.ddnnf.top.node != kInvalidNnf;
      if (!have_trace) {
        out.append("notrace\n");
      } else {
        out.append("trace ").append(std::to_string(cert.ddnnf.comps.size()));
        out.append("\n");
        for (const CertComp& comp : cert.ddnnf.comps) {
          out.append("comp ").append(std::to_string(comp.decision));
          out.append(" ").append(std::to_string(comp.node)).append("\n");
          AppendBranch(comp.hi, "b", &out);
          AppendBranch(comp.lo, "b", &out);
        }
        AppendBranch(cert.ddnnf.top, "top", &out);
      }
      break;
    }
    case Certificate::Kind::kSdd:
      AppendNnfSection(cert.nnf, cert.root, &out);
      out.append("notrace\n");
      break;
    case Certificate::Kind::kObdd: {
      const ObddTrace& trace = cert.obdd;
      out.append("order ").append(std::to_string(trace.order.size()));
      for (Var v : trace.order) out.append(" ").append(std::to_string(v));
      out.append("\n");
      out.append("obdd ").append(std::to_string(trace.nodes.size()));
      out.append(" ").append(std::to_string(trace.root)).append("\n");
      for (size_t id = 2; id < trace.nodes.size(); ++id) {
        const ObddTrace::NodeRec& n = trace.nodes[id];
        out.append(std::to_string(n.var)).append(" ");
        out.append(std::to_string(n.lo)).append(" ");
        out.append(std::to_string(n.hi)).append("\n");
      }
      out.append("steps ").append(std::to_string(trace.steps.size()));
      out.append("\n");
      for (const ObddStep& s : trace.steps) {
        out.append(std::to_string(s.f)).append(" ");
        out.append(std::to_string(s.g)).append(" ");
        out.append(std::to_string(s.r)).append("\n");
      }
      out.append("chain ").append(std::to_string(trace.chain.size()));
      out.append("\n");
      for (const ObddChainLink& link : trace.chain) {
        out.append(std::to_string(link.clause_index)).append(" ");
        out.append(std::to_string(link.clause_node)).append(" ");
        out.append(std::to_string(link.acc_node)).append("\n");
      }
      break;
    }
  }
  out.append("end\n");
  TBC_COUNT("certify.traces_emitted");
  TBC_COUNT_N("certify.trace_bytes", out.size());
  return out;
}

Result<Certificate> ParseCertificate(const std::string& text) {
  Certificate cert;
  LineReader reader(text);
  std::vector<std::string> tokens;
  if (!reader.Next(&tokens) || tokens.size() != 3 || tokens[0] != "tbc-cert") {
    return reader.Err("expected 'tbc-cert 1 <kind>' header");
  }
  if (tokens[1] != "1") return reader.Err("unsupported certificate version");
  if (tokens[2] == "ddnnf") {
    cert.kind = Certificate::Kind::kDdnnf;
  } else if (tokens[2] == "obdd") {
    cert.kind = Certificate::Kind::kObdd;
  } else if (tokens[2] == "sdd") {
    cert.kind = Certificate::Kind::kSdd;
  } else {
    return reader.Err("unknown certificate kind '" + tokens[2] + "'");
  }
  if (!reader.Next(&tokens) || tokens.size() != 2 || tokens[0] != "count" ||
      !ParseBigUint(tokens[1], &cert.claimed_count)) {
    return reader.Err("expected 'count <decimal>'");
  }
  uint64_t num_vars = 0;
  uint64_t num_clauses = 0;
  if (!reader.Next(&tokens) || tokens.size() != 3 || tokens[0] != "cnf" ||
      !ParseUint64(tokens[1], &num_vars) ||
      !ParseUint64(tokens[2], &num_clauses)) {
    return reader.Err("expected 'cnf <vars> <clauses>'");
  }
  if (num_vars > kMaxDimacsVar) {
    return reader.Err("cnf variable count over the 2^28 cap");
  }
  cert.cnf.EnsureVars(num_vars);
  for (uint64_t i = 0; i < num_clauses; ++i) {
    if (!reader.Next(&tokens)) return reader.Err("truncated clause list");
    Clause clause;
    bool terminated = false;
    for (const std::string& tok : tokens) {
      int d = 0;
      if (terminated || !ParseDimacsInt(tok, &d)) {
        return reader.Err("malformed clause line");
      }
      if (d == 0) {
        terminated = true;
        continue;
      }
      const Lit lit = Lit::FromDimacs(d);
      if (lit.var() >= num_vars) {
        return reader.Err("clause literal out of range");
      }
      clause.push_back(lit);
    }
    if (!terminated) return reader.Err("clause line missing trailing 0");
    cert.cnf.AddClause(std::move(clause));
  }
  // AddClause drops tautologies and duplicate literals; a count mismatch
  // means the embedded CNF was not in the writer's normalized form.
  if (cert.cnf.num_clauses() != num_clauses) {
    return reader.Err("embedded CNF is not normalized");
  }

  if (!reader.Next(&tokens) || tokens.empty()) {
    return reader.Err("truncated certificate body");
  }
  switch (cert.kind) {
    case Certificate::Kind::kDdnnf:
      TBC_RETURN_IF_ERROR(ParseNnfSection(reader, tokens, &cert));
      if (!reader.Next(&tokens) || tokens.empty()) {
        return reader.Err("missing trace section");
      }
      TBC_RETURN_IF_ERROR(ParseDdnnfTrace(reader, tokens, &cert));
      break;
    case Certificate::Kind::kSdd:
      TBC_RETURN_IF_ERROR(ParseNnfSection(reader, tokens, &cert));
      if (!reader.Next(&tokens) || tokens.size() != 1 ||
          tokens[0] != "notrace") {
        return reader.Err("expected 'notrace' for sdd certificates");
      }
      break;
    case Certificate::Kind::kObdd:
      TBC_RETURN_IF_ERROR(ParseObddSection(reader, tokens, &cert));
      break;
  }
  if (!reader.Next(&tokens) || tokens.size() != 1 || tokens[0] != "end") {
    return reader.Err("missing 'end' marker (truncated certificate)");
  }
  return cert;
}

}  // namespace tbc
