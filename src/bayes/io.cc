#include "bayes/io.h"

#include <cstdio>

#include "base/strings.h"

namespace tbc {

std::string WriteNetwork(const BayesianNetwork& net) {
  std::string out = "net " + std::to_string(net.num_vars()) + "\n";
  char buffer[64];
  for (BnVar v = 0; v < net.num_vars(); ++v) {
    out += "var " + net.name(v) + " " + std::to_string(net.cardinality(v)) +
           " " + std::to_string(net.parents(v).size());
    for (BnVar p : net.parents(v)) out.append(" ").append(std::to_string(p));
    out += "\ncpt " + std::to_string(v);
    for (double theta : net.cpt(v)) {
      std::snprintf(buffer, sizeof(buffer), " %.17g", theta);
      out += buffer;
    }
    out += "\n";
  }
  return out;
}

Result<BayesianNetwork> ParseNetwork(const std::string& text) {
  BayesianNetwork net;
  // Pending declaration awaiting its CPT.
  std::string pending_name;
  uint32_t pending_card = 0;
  std::vector<BnVar> pending_parents;
  bool have_pending = false;
  bool saw_header = false;

  size_t line_no = 0;
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> tok = SplitWhitespace(line);
    if (tok[0] == "net") {
      saw_header = true;
    } else if (tok[0] == "var") {
      if (!saw_header) return BadLine(line_no, "var before net header");
      if (have_pending) {
        return BadLine(line_no, "var without cpt: " + pending_name);
      }
      if (tok.size() < 4) return BadLine(line_no, "bad var line: " + raw);
      pending_name = tok[1];
      uint64_t card = 0;
      if (!ParseUint64(tok[2], &card) || card < 2 || card > (1u << 20)) {
        return BadLine(line_no, "bad cardinality '" + tok[2] + "'");
      }
      pending_card = static_cast<uint32_t>(card);
      uint64_t num_parents = 0;
      if (!ParseUint64(tok[3], &num_parents)) {
        return BadLine(line_no, "bad parent count '" + tok[3] + "'");
      }
      if (tok.size() != 4 + num_parents) {
        return BadLine(line_no, "parent list does not match declared count: " +
                                    raw);
      }
      pending_parents.clear();
      for (size_t i = 0; i < num_parents; ++i) {
        uint64_t p = 0;
        if (!ParseUint64(tok[4 + i], &p)) {
          return BadLine(line_no, "bad parent index '" + tok[4 + i] + "'");
        }
        if (p >= net.num_vars()) {
          return BadLine(line_no, "parent " + std::to_string(p) +
                                      " not declared before child");
        }
        pending_parents.push_back(static_cast<BnVar>(p));
      }
      have_pending = true;
    } else if (tok[0] == "cpt") {
      if (!have_pending) return BadLine(line_no, "cpt without var: " + raw);
      uint64_t rows = 1;
      for (BnVar p : pending_parents) {
        rows *= net.cardinality(p);
        if (rows > (1u << 24)) {
          return BadLine(line_no, "cpt too large (parent state space > 2^24)");
        }
      }
      const size_t expected = rows * pending_card + 2;
      if (tok.size() != expected) {
        return BadLine(line_no, "cpt size mismatch: expected " +
                                    std::to_string(expected - 2) +
                                    " entries, got " +
                                    std::to_string(tok.size() - 2));
      }
      std::vector<double> cpt;
      for (size_t i = 2; i < tok.size(); ++i) {
        double theta = 0.0;
        if (!ParseDouble(tok[i], &theta) || theta < 0.0 || theta > 1.0) {
          return BadLine(line_no, "bad probability '" + tok[i] + "'");
        }
        cpt.push_back(theta);
      }
      // Validate rows sum to ~1 before handing to the aborting builder.
      for (size_t r = 0; r < rows; ++r) {
        double sum = 0.0;
        for (uint32_t k = 0; k < pending_card; ++k) sum += cpt[r * pending_card + k];
        if (sum < 1.0 - 1e-6 || sum > 1.0 + 1e-6) {
          return BadLine(line_no, "cpt row " + std::to_string(r) +
                                      " does not sum to 1");
        }
      }
      net.AddVariable(pending_name, pending_card, pending_parents, std::move(cpt));
      have_pending = false;
    } else {
      return BadLine(line_no, "unknown line: " + raw);
    }
  }
  if (!saw_header) return Status::InvalidInput("missing net header");
  if (have_pending) {
    return Status::InvalidInput("var without cpt: " + pending_name);
  }
  if (net.num_vars() == 0) return Status::InvalidInput("empty network");
  return net;
}

}  // namespace tbc
