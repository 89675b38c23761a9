#include "logic/cnf.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "base/strings.h"

namespace tbc {

void Cnf::AddClause(Clause clause) {
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  // Tautology check: sorted order puts x (code 2v) right before ~x (2v+1).
  for (size_t i = 0; i + 1 < clause.size(); ++i) {
    if (clause[i].var() == clause[i + 1].var()) return;
  }
  for (Lit l : clause) EnsureVars(l.var() + 1);
  clauses_.push_back(std::move(clause));
}

void Cnf::AddClauseDimacs(const std::vector<int>& dimacs_lits) {
  Clause c;
  c.reserve(dimacs_lits.size());
  for (int d : dimacs_lits) c.push_back(Lit::FromDimacs(d));
  AddClause(std::move(c));
}

bool Cnf::Evaluate(const Assignment& assignment) const {
  for (const Clause& c : clauses_) {
    bool sat = false;
    for (Lit l : c) {
      if (Eval(l, assignment)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

Cnf Cnf::Condition(Lit l) const {
  Cnf out(num_vars_);
  for (const Clause& c : clauses_) {
    bool satisfied = false;
    Clause reduced;
    for (Lit x : c) {
      if (x == l) {
        satisfied = true;
        break;
      }
      if (x != ~l) reduced.push_back(x);
    }
    if (!satisfied) out.clauses_.push_back(std::move(reduced));
  }
  return out;
}

Cnf Cnf::Conjoin(const Cnf& a, const Cnf& b) {
  Cnf out(std::max(a.num_vars_, b.num_vars_));
  out.clauses_ = a.clauses_;
  out.clauses_.insert(out.clauses_.end(), b.clauses_.begin(), b.clauses_.end());
  return out;
}

bool Cnf::HasEmptyClause() const {
  for (const Clause& c : clauses_) {
    if (c.empty()) return true;
  }
  return false;
}

uint64_t Cnf::CountModelsBruteForce() const {
  TBC_CHECK_MSG(num_vars_ <= 30, "brute-force count limited to 30 variables");
  uint64_t count = 0;
  Assignment a(num_vars_, false);
  const uint64_t total = 1ull << num_vars_;
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (size_t v = 0; v < num_vars_; ++v) a[v] = (bits >> v) & 1u;
    if (Evaluate(a)) ++count;
  }
  return count;
}

namespace {

// The C locale's whitespace (space, \t, \n, \v, \f, \r) as a fixed test, so
// the parse reads each byte once and does not depend on the process locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Splits the next whitespace-delimited token off the front of `rest`;
// empty once `rest` holds only whitespace.
std::string_view NextToken(std::string_view& rest) {
  size_t b = 0;
  while (b < rest.size() && IsSpace(rest[b])) ++b;
  size_t e = b;
  while (e < rest.size() && !IsSpace(rest[e])) ++e;
  const std::string_view token = rest.substr(b, e - b);
  rest.remove_prefix(e);
  return token;
}

}  // namespace

// One cursor over the text: no per-line or per-token strings, and each
// byte of a clause line is read once, so a request's DIMACS costs its
// tokens and its clauses only.
Result<Cnf> Cnf::ParseDimacs(const std::string& text) {
  Cnf cnf;
  bool saw_header = false;
  uint64_t declared_vars = 0;
  Clause pending;
  const char* p = text.data();
  const char* const end = p + text.size();
  // Lines are the '\n'-separated fields, the (possibly empty) one after
  // the last '\n' included. Each turn leaves `p` on its line's '\n' or on
  // the end of the text.
  for (size_t line_no = 1;; ++line_no) {
    const char* const line = p;
    while (p != end && *p != '\n' && IsSpace(*p)) ++p;
    if (p != end && (*p == 'c' || *p == '%' || *p == 'p')) {
      const char* eol = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<size_t>(end - p)));
      if (eol == nullptr) eol = end;
      if (*p == 'p') {
        std::string_view rest(p, static_cast<size_t>(eol - p));
        std::string_view tok[4];
        size_t count = 0;
        while (count < 4 && !(tok[count] = NextToken(rest)).empty()) ++count;
        if (count < 4 || tok[1] != "cnf") {
          return BadLine(line_no,
                         "bad DIMACS header: " +
                             std::string(line, static_cast<size_t>(eol - line)));
        }
        if (!ParseUint64(tok[2], &declared_vars) ||
            declared_vars > kMaxDimacsVar) {
          return BadLine(line_no,
                         "bad variable count '" + std::string(tok[2]) + "'");
        }
        saw_header = true;
      }
      p = eol;
    } else {
      while (p != end && *p != '\n') {
        if (IsSpace(*p)) {
          ++p;
          continue;
        }
        const char* const tok = p;
        while (p != end && !IsSpace(*p)) ++p;
        const std::string_view token(tok, static_cast<size_t>(p - tok));
        int v = 0;
        if (!ParseInt(token, &v) || v < -kMaxDimacsVar || v > kMaxDimacsVar) {
          return BadLine(line_no, "bad DIMACS token: " + std::string(token));
        }
        if (v == 0) {
          cnf.AddClause(pending);
          pending.clear();
        } else {
          pending.push_back(Lit::FromDimacs(v));
        }
      }
    }
    if (p == end) break;
    ++p;  // the line's '\n'
  }
  if (!pending.empty()) cnf.AddClause(std::move(pending));
  if (!saw_header) return Status::InvalidInput("missing DIMACS header");
  cnf.EnsureVars(declared_vars);
  return cnf;
}

std::string Cnf::ToDimacs() const {
  std::string out = "p cnf " + std::to_string(num_vars_) + " " +
                    std::to_string(clauses_.size()) + "\n";
  for (const Clause& c : clauses_) {
    for (Lit l : c) out += std::to_string(l.ToDimacs()) + " ";
    out += "0\n";
  }
  return out;
}

}  // namespace tbc
