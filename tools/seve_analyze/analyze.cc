#include "analyze.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace seve_analyze {
namespace {

using seve_lint::Allow;
using seve_lint::AnnotationTool;
using seve_lint::BadAnnotation;
using seve_lint::Include;
using seve_lint::IsTok;
using seve_lint::LexedFile;
using seve_lint::Lex;
using seve_lint::StartsWith;
using seve_lint::Token;
using seve_lint::TokKind;

bool InPrefix(const std::string& path, const std::string& prefix) {
  return StartsWith(path, prefix + "/") || path == prefix;
}

bool IsPunct(const std::vector<Token>& t, size_t i, const char* text) {
  return IsTok(t, i, TokKind::kPunct, text);
}

bool IsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}

bool IsIdentText(const std::vector<Token>& t, size_t i, const char* text) {
  return IsTok(t, i, TokKind::kIdent, text);
}

bool IsAnyOf(const std::string& s, std::initializer_list<const char*> set) {
  for (const char* x : set) {
    if (s == x) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Symbol table: function definitions recognized from the token stream.
// ---------------------------------------------------------------------------

struct FunctionDef {
  std::string name;       // simple name, e.g. "Digest"
  std::string qualified;  // class-qualified where known, e.g.
                          // "WorldState::Digest"; == name for free functions
  int file = -1;          // index into the lexed-file array
  int line = 0;           // line of the name token
  size_t body_begin = 0;  // token index of the opening '{'
  size_t body_end = 0;    // token index of the matching '}'
};

struct Scope {
  enum Kind { kNamespace, kClass, kEnum, kFunction, kOther };
  Kind kind;
  std::string name;
  int func = -1;  // FunctionDef index when kind == kFunction
};

// Recognizes function definitions in one lexed file. Heuristic, not a
// parser: at namespace/class scope, an `{` preceded (within the current
// statement) by `name ( ... )` plus only qualifiers or a member-init
// list opens a function body. Braces nested inside a function —
// including lambda bodies — belong to that function, so a call made
// from a lambda is attributed to the enclosing definition, which is
// exactly what reachability wants.
class FunctionScanner {
 public:
  FunctionScanner(const LexedFile& f, int file_index,
                  std::vector<FunctionDef>* out)
      : f_(f), t_(f.tokens), file_(file_index), out_(out) {}

  void Run() {
    for (size_t i = 0; i < t_.size(); ++i) {
      if (IsPunct(t_, i, "{")) {
        scopes_.push_back(Classify(i));
      } else if (IsPunct(t_, i, "}") && !scopes_.empty()) {
        if (scopes_.back().kind == Scope::kFunction) {
          (*out_)[static_cast<size_t>(scopes_.back().func)].body_end = i;
        }
        scopes_.pop_back();
      }
    }
  }

 private:
  bool InsideFunction() const {
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kFunction) return true;
    }
    return false;
  }

  std::string InnermostClass() const {
    for (size_t i = scopes_.size(); i-- > 0;) {
      if (scopes_[i].kind == Scope::kClass) return scopes_[i].name;
    }
    return "";
  }

  // Classifies the `{` at token index `open` by looking back across the
  // current statement (to the previous `;`, `{` or `}`).
  Scope Classify(size_t open) {
    if (InsideFunction()) return Scope{Scope::kOther, "", -1};
    size_t begin = open;
    while (begin > 0 && !IsPunct(t_, begin - 1, ";") &&
           !IsPunct(t_, begin - 1, "{") && !IsPunct(t_, begin - 1, "}")) {
      --begin;
    }
    // `enum [class] Name {` before the class-key check: `enum class`
    // contains both keywords.
    for (size_t i = begin; i < open; ++i) {
      if (IsIdentText(t_, i, "enum")) return Scope{Scope::kEnum, "", -1};
      if (IsIdentText(t_, i, "namespace")) {
        std::string name = IsIdent(t_, i + 1) ? t_[i + 1].text : "";
        return Scope{Scope::kNamespace, name, -1};
      }
    }
    // `class|struct|union Name ... {` with no parameter list. The LAST
    // class-key names the type (`template <class T> struct Foo`).
    bool has_paren = false;
    for (size_t i = begin; i < open; ++i) {
      if (IsPunct(t_, i, "(")) has_paren = true;
    }
    if (!has_paren) {
      for (size_t i = open; i-- > begin;) {
        if (IsIdentText(t_, i, "class") || IsIdentText(t_, i, "struct") ||
            IsIdentText(t_, i, "union")) {
          std::string name = IsIdent(t_, i + 1) ? t_[i + 1].text : "";
          return Scope{Scope::kClass, name, -1};
        }
      }
    }
    return ClassifyFunction(begin, open);
  }

  Scope ClassifyFunction(size_t begin, size_t open) {
    // First `(` in the statement whose preceding token is an identifier
    // opens the parameter list; that identifier is the function name.
    size_t lparen = open;
    for (size_t i = begin + 1; i < open; ++i) {
      if (IsPunct(t_, i, "(") && IsIdent(t_, i - 1) &&
          !IsAnyOf(t_[i - 1].text,
                   {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "alignof", "decltype", "noexcept"})) {
        lparen = i;
        break;
      }
    }
    if (lparen == open) return Scope{Scope::kOther, "", -1};
    size_t rparen = lparen;
    int depth = 0;
    for (size_t i = lparen; i < open; ++i) {
      if (IsPunct(t_, i, "(")) ++depth;
      if (IsPunct(t_, i, ")") && --depth == 0) {
        rparen = i;
        break;
      }
    }
    if (rparen == lparen) return Scope{Scope::kOther, "", -1};
    // Between `)` and `{`: a member-init list (leading `:`), or only
    // qualifier/trailing-return tokens. Anything else — `=`, a second
    // parameter list — means this brace is not a function body.
    if (!IsPunct(t_, rparen + 1, ":")) {
      for (size_t i = rparen + 1; i < open; ++i) {
        if (t_[i].kind == TokKind::kIdent) continue;
        if (t_[i].kind == TokKind::kPunct &&
            IsAnyOf(t_[i].text, {"&", "*", "-", ">", "<", ",", "::"})) {
          continue;
        }
        return Scope{Scope::kOther, "", -1};
      }
    }
    const size_t name_tok = lparen - 1;
    std::string qualified = t_[name_tok].text;
    size_t i = name_tok;
    while (i >= 2 && IsPunct(t_, i - 1, "::") && IsIdent(t_, i - 2)) {
      qualified = t_[i - 2].text + "::" + qualified;
      i -= 2;
    }
    if (i == name_tok) {
      const std::string cls = InnermostClass();
      if (!cls.empty()) qualified = cls + "::" + qualified;
    }
    FunctionDef def;
    def.name = t_[name_tok].text;
    def.qualified = qualified;
    def.file = file_;
    def.line = t_[name_tok].line;
    def.body_begin = open;
    def.body_end = open;  // patched when the matching `}` pops
    out_->push_back(def);
    return Scope{Scope::kFunction, def.name,
                 static_cast<int>(out_->size() - 1)};
  }

  const LexedFile& f_;
  const std::vector<Token>& t_;
  int file_;
  std::vector<FunctionDef>* out_;
  std::vector<Scope> scopes_;
};

// ---------------------------------------------------------------------------
// The analyzer.
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const std::vector<seve_lint::SourceFile>& files,
           const AnalyzeConfig& config)
      : config_(config) {
    lexed_.reserve(files.size());
    for (const seve_lint::SourceFile& f : files) lexed_.push_back(Lex(f));
  }

  std::vector<Finding> Run() {
    BuildSymbols();
    BuildIncludeClosures();
    BuildCallGraph();
    CheckDigestPurity();
    CheckHotAllocReachability();
    CheckStateMachines();
    CheckWireCompleteness();
    CheckForbiddenAllows();
    CheckBadAnnotations();
    CheckUnusedAllows();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return findings_;
  }

 private:
  const std::string& PathOf(int file) const {
    return lexed_[static_cast<size_t>(file)].src->path;
  }

  // --- escape hatch -------------------------------------------------------

  bool Allowed(const LexedFile& f, const std::string& rule, int line) {
    for (const Allow& a : f.allows) {
      if (a.tool != AnnotationTool::kAnalyze) continue;
      if (a.rule != rule && a.rule != "*") continue;
      if (!a.whole_file && line != a.line && line != a.line + 1) continue;
      used_allows_.insert(&a);
      return true;
    }
    return false;
  }

  // Cross-tool alias: a site already carrying seve-lint's
  // allow(hot-vector-realloc) is also clean for hot-alloc-reachable, so
  // one annotation covers both pipeline stages.
  bool LintHotAllowed(const LexedFile& f, int line) {
    for (const Allow& a : f.allows) {
      if (a.tool != AnnotationTool::kLint) continue;
      if (a.rule != "hot-vector-realloc" && a.rule != "*") continue;
      if (!a.whole_file && line != a.line && line != a.line + 1) continue;
      return true;
    }
    return false;
  }

  void Report(const LexedFile& f, int line, const std::string& rule,
              const std::string& message,
              std::vector<std::string> chain = {}) {
    if (Allowed(f, rule, line)) return;
    findings_.push_back(
        Finding{f.src->path, line, rule, message, std::move(chain)});
  }

  // --- symbol table & include graph ---------------------------------------

  void BuildSymbols() {
    for (size_t i = 0; i < lexed_.size(); ++i) {
      FunctionScanner(lexed_[i], static_cast<int>(i), &functions_).Run();
    }
    for (size_t i = 0; i < functions_.size(); ++i) {
      const int idx = static_cast<int>(i);
      by_name_[functions_[i].name].push_back(idx);
      by_qualified_[functions_[i].qualified].push_back(idx);
    }
  }

  static std::string HeaderOf(const std::string& path) {
    if (path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0) {
      return path.substr(0, path.size() - 3) + ".h";
    }
    return path;
  }

  void BuildIncludeClosures() {
    std::map<std::string, int> index;
    for (size_t i = 0; i < lexed_.size(); ++i) {
      index[lexed_[i].src->path] = static_cast<int>(i);
    }
    // Direct edges: quoted includes resolved against src/ (the project
    // include root) and against the tree as written.
    std::vector<std::vector<int>> direct(lexed_.size());
    for (size_t i = 0; i < lexed_.size(); ++i) {
      for (const Include& inc : lexed_[i].includes) {
        if (!inc.quoted) continue;
        auto it = index.find("src/" + inc.target);
        if (it == index.end()) it = index.find(inc.target);
        if (it != index.end()) direct[i].push_back(it->second);
      }
    }
    closures_.assign(lexed_.size(), {});
    for (size_t i = 0; i < lexed_.size(); ++i) {
      std::set<int>& out = closures_[i];
      std::vector<int> stack{static_cast<int>(i)};
      while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        if (!out.insert(cur).second) continue;
        for (int next : direct[static_cast<size_t>(cur)]) stack.push_back(next);
      }
    }
  }

  // Definitions in file `def` are visible from file `from` when `from`
  // (transitively) includes `def` itself or the header of `def`'s TU.
  bool Visible(int from, int def) const {
    if (from == def) return true;
    const std::set<int>& cl = closures_[static_cast<size_t>(from)];
    if (cl.count(def)) return true;
    const std::string hdr = HeaderOf(PathOf(def));
    for (int fi : cl) {
      if (PathOf(fi) == hdr) return true;
    }
    return false;
  }

  // --- call graph ---------------------------------------------------------

  void BuildCallGraph() {
    calls_.assign(functions_.size(), {});
    for (size_t fi = 0; fi < functions_.size(); ++fi) {
      const FunctionDef& fn = functions_[fi];
      const std::vector<Token>& t =
          lexed_[static_cast<size_t>(fn.file)].tokens;
      for (size_t k = fn.body_begin + 1; k + 1 < fn.body_end; ++k) {
        if (!IsIdent(t, k) || !IsPunct(t, k + 1, "(")) continue;
        if (IsAnyOf(t[k].text,
                    {"if", "for", "while", "switch", "catch", "sizeof",
                     "alignof", "decltype", "noexcept", "new", "delete",
                     "assert", "static_assert"})) {
          continue;
        }
        // Qualified call `A::B(` — resolve by qualified name first.
        std::string qual;
        size_t chain_begin = k;
        while (chain_begin >= 2 && IsPunct(t, chain_begin - 1, "::") &&
               IsIdent(t, chain_begin - 2)) {
          qual = qual.empty() ? t[chain_begin - 2].text
                              : t[chain_begin - 2].text + "::" + qual;
          chain_begin -= 2;
        }
        if (chain_begin > 0 && !IsCallContext(t, chain_begin - 1)) continue;
        Connect(static_cast<int>(fi),
                qual.empty() ? "" : qual + "::" + t[k].text, t[k].text);
      }
    }
  }

  // Token before a `name(` decides call vs declaration. `std::vector<T>
  // x(...)` and `Foo bar(...)` are declarations; `obj->M(...)`,
  // `return F(...)`, `x = F(...)` are calls. (`->` lexes as `-` `>`.)
  static bool IsCallContext(const std::vector<Token>& t, size_t prev) {
    if (t[prev].kind == TokKind::kIdent) {
      return IsAnyOf(t[prev].text, {"return", "throw", "else", "case", "do",
                                    "co_return", "co_await", "co_yield"});
    }
    const std::string& p = t[prev].text;
    if (p == ">") return prev > 0 && IsPunct(t, prev - 1, "-");
    if (p == "*" || p == "&") return false;
    return true;
  }

  void Connect(int caller, const std::string& qualified,
               const std::string& simple) {
    if (!qualified.empty()) {
      auto it = by_qualified_.find(qualified);
      if (it != by_qualified_.end()) {
        for (int callee : it->second) calls_[caller].insert(callee);
        return;
      }
    }
    auto it = by_name_.find(simple);
    if (it == by_name_.end()) return;  // external (std::, macros, ...)
    const int from = functions_[static_cast<size_t>(caller)].file;
    std::vector<int> visible;
    for (int callee : it->second) {
      if (Visible(from, functions_[static_cast<size_t>(callee)].file)) {
        visible.push_back(callee);
      }
    }
    // No candidate visible through the include graph: keep them all
    // (over-approximate) rather than silently dropping the edge.
    const std::vector<int>& picked = visible.empty() ? it->second : visible;
    for (int callee : picked) calls_[caller].insert(callee);
  }

  // BFS from the functions matching `roots` (by qualified or simple
  // name); parents_ retains one shortest call chain per function.
  std::vector<int> Reach(const std::vector<std::string>& roots,
                         const std::string& rule_for_stale_root,
                         const std::vector<std::string>& barriers = {}) {
    parents_.assign(functions_.size(), -2);  // -2 unreached, -1 root
    std::vector<int> queue;
    for (const std::string& root : roots) {
      bool matched = false;
      for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].qualified == root || functions_[i].name == root) {
          if (parents_[i] == -2) {
            parents_[i] = -1;
            queue.push_back(static_cast<int>(i));
          }
          matched = true;
        }
      }
      if (!matched && !lexed_.empty()) {
        // A renamed root would silently hollow the rule out; fail loud.
        findings_.push_back(Finding{
            lexed_[0].src->path, 0, rule_for_stale_root,
            "reachability root '" + root +
                "' matches no function definition; update DefaultConfig()",
            {}});
      }
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      const int cur = queue[head];
      const FunctionDef& d = functions_[static_cast<size_t>(cur)];
      bool barrier = false;
      for (const std::string& b : barriers) {
        barrier |= d.qualified == b || d.name == b;
      }
      if (barrier) continue;  // body checked, callees not traversed
      for (int next : calls_[static_cast<size_t>(cur)]) {
        if (parents_[static_cast<size_t>(next)] != -2) continue;
        parents_[static_cast<size_t>(next)] = cur;
        queue.push_back(next);
      }
    }
    return queue;
  }

  std::vector<std::string> ChainTo(int fn) const {
    std::vector<std::string> chain;
    for (int cur = fn; cur != -1;
         cur = parents_[static_cast<size_t>(cur)]) {
      const FunctionDef& d = functions_[static_cast<size_t>(cur)];
      chain.push_back(d.qualified + " (" + PathOf(d.file) + ":" +
                      std::to_string(d.line) + ")");
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  }

  // --- rule: digest-path-purity -------------------------------------------

  void CheckDigestPurity() {
    for (int fi : Reach(config_.digest_roots, "digest-path-purity")) {
      const FunctionDef& fn = functions_[static_cast<size_t>(fi)];
      const LexedFile& f = lexed_[static_cast<size_t>(fn.file)];
      const std::vector<Token>& t = f.tokens;
      for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
        if (t[k].kind != TokKind::kIdent) continue;
        const std::string& id = t[k].text;
        std::string what;
        if (IsAnyOf(id, {"rand", "srand", "rand_r", "drand48", "random",
                         "gettimeofday", "clock_gettime", "localtime",
                         "gmtime"})) {
          what = "banned function '" + id + "'";
        } else if (IsAnyOf(id, {"system_clock", "steady_clock",
                                "high_resolution_clock"})) {
          what = "clock read ('" + id + "')";
        } else if (id == "this_thread") {
          what = "thread identity ('std::this_thread')";
        } else if (IsAnyOf(id, {"unordered_map", "unordered_set",
                                "unordered_multimap", "unordered_multiset"})) {
          what = "unordered container ('" + id +
                 "', iteration order is nondeterministic)";
        } else if (id == "time" && IsPunct(t, k + 1, "(") &&
                   (k == 0 || (!IsIdent(t, k - 1) &&
                               !IsPunct(t, k - 1, ".") &&
                               !IsPunct(t, k - 1, ">") &&
                               !IsPunct(t, k - 1, "::")))) {
          what = "banned function 'time'";
        } else if (IsAnyOf(id, {"map", "set", "multimap", "multiset"}) &&
                   IsPunct(t, k + 1, "<") && PointerKeyed(t, k + 1)) {
          what = "pointer-keyed '" + id +
                 "' (iteration order depends on the allocator)";
        }
        if (what.empty()) continue;
        Report(f, t[k].line, "digest-path-purity",
               what + " in '" + fn.qualified +
                   "', which is reachable from a digest root via:",
               ChainTo(fi));
      }
    }
  }

  // First template argument of `map<...>` contains a `*`?
  static bool PointerKeyed(const std::vector<Token>& t, size_t langle) {
    int depth = 0;
    for (size_t i = langle; i < t.size() && i < langle + 64; ++i) {
      if (IsPunct(t, i, "<")) ++depth;
      if (IsPunct(t, i, ">") && --depth == 0) return false;
      if (IsPunct(t, i, ",") && depth == 1) return false;
      if (IsPunct(t, i, "*") && depth >= 1) return true;
      if (IsPunct(t, i, ";") || IsPunct(t, i, "{")) return false;
    }
    return false;
  }

  // --- rule: hot-alloc-reachable ------------------------------------------

  void CheckHotAllocReachability() {
    for (int fi : Reach(config_.hot_roots, "hot-alloc-reachable",
                        config_.hot_barriers)) {
      const FunctionDef& fn = functions_[static_cast<size_t>(fi)];
      const LexedFile& f = lexed_[static_cast<size_t>(fn.file)];
      if (seve_lint::InDir(f.src->path, "src/common")) continue;
      const std::vector<Token>& t = f.tokens;
      for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
        if (t[k].kind != TokKind::kIdent) continue;
        if (t[k].text == "new") {
          if (LintHotAllowed(f, t[k].line)) continue;
          Report(f, t[k].line, "hot-alloc-reachable",
                 "raw 'new' in '" + fn.qualified +
                     "', which is reachable from a hot root via:",
                 ChainTo(fi));
          continue;
        }
        if (!IsAnyOf(t[k].text, {"push_back", "emplace_back"})) continue;
        if (!IsPunct(t, k + 1, "(")) continue;
        std::string recv;
        if (k >= 2 && IsPunct(t, k - 1, ".") && IsIdent(t, k - 2)) {
          recv = t[k - 2].text;
        } else if (k >= 3 && IsPunct(t, k - 1, ">") &&
                   IsPunct(t, k - 2, "-") && IsIdent(t, k - 3)) {
          recv = t[k - 3].text;
        }
        if (recv.empty()) continue;
        if (FileReserves(t, recv)) continue;
        if (LintHotAllowed(f, t[k].line)) continue;
        Report(f, t[k].line, "hot-alloc-reachable",
               "'" + recv + "." + t[k].text +
                   "' with no reserve() for '" + recv + "' in '" +
                   fn.qualified +
                   "', which is reachable from a hot root via:",
               ChainTo(fi));
      }
    }
  }

  // Anywhere in the defining file: `recv.reserve(` / `recv->reserve(`.
  static bool FileReserves(const std::vector<Token>& t,
                           const std::string& recv) {
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (!IsTok(t, i, TokKind::kIdent, recv.c_str())) continue;
      size_t j = i + 1;
      if (IsPunct(t, j, ".")) {
        ++j;
      } else if (IsPunct(t, j, "-") && IsPunct(t, j + 1, ">")) {
        j += 2;
      } else {
        continue;
      }
      if (IsIdentText(t, j, "reserve") && IsPunct(t, j + 1, "(")) return true;
    }
    return false;
  }

  // --- rule: state-machine ------------------------------------------------

  struct Edge {
    std::string from, to, via;
    int line = 0;
    bool performed = false;
  };
  struct Machine {
    std::string name, field, scope, init;
    int line = 0;
    std::set<std::string> states;
    std::vector<Edge> edges;
  };

  void SpecError(int line, const std::string& message) {
    findings_.push_back(Finding{config_.spec_path.empty()
                                    ? std::string("<spec>")
                                    : config_.spec_path,
                                line, "spec-error", message, {}});
  }

  std::vector<Machine> ParseSpec() {
    std::vector<Machine> machines;
    std::istringstream in(config_.spec_text);
    std::string raw;
    Machine* cur = nullptr;
    int lineno = 0;
    while (std::getline(in, raw)) {
      ++lineno;
      const size_t hash = raw.find('#');
      if (hash != std::string::npos) raw.resize(hash);
      std::istringstream ls(raw);
      std::vector<std::string> w;
      std::string word;
      while (ls >> word) w.push_back(word);
      if (w.empty()) continue;
      if (w[0] == "machine" && w.size() == 2) {
        machines.push_back(Machine{});
        cur = &machines.back();
        cur->name = w[1];
        cur->line = lineno;
      } else if (cur == nullptr) {
        SpecError(lineno, "directive before any 'machine'");
      } else if (w[0] == "field" && w.size() == 2) {
        cur->field = w[1];
      } else if (w[0] == "scope" && w.size() == 2) {
        cur->scope = w[1];
      } else if (w[0] == "state" && (w.size() == 2 || w.size() == 3)) {
        cur->states.insert(w[1]);
        if (w.size() == 3) {
          if (w[2] != "init") {
            SpecError(lineno, "unknown state attribute '" + w[2] + "'");
          } else {
            cur->init = w[1];
          }
        }
      } else if (w[0] == "edge" && w.size() == 6 && w[2] == "->" &&
                 w[4] == "via") {
        cur->edges.push_back(Edge{w[1], w[3], w[5], lineno, false});
      } else if (w[0] == "end" && w.size() == 1) {
        cur = nullptr;
      } else {
        SpecError(lineno, "unparseable line: '" + raw + "'");
      }
    }
    for (const Machine& m : machines) {
      if (m.field.empty()) SpecError(m.line, m.name + ": missing 'field'");
      if (m.scope.empty()) SpecError(m.line, m.name + ": missing 'scope'");
      for (const Edge& e : m.edges) {
        if (!m.states.count(e.from) || !m.states.count(e.to)) {
          SpecError(e.line, m.name + ": edge references undeclared state");
        }
      }
    }
    return machines;
  }

  // The state name in `... = Phase::kDraining;` or `== kOffered`: the
  // last identifier of the value's `A::B::kState` chain.
  static std::string StateAfter(const std::vector<Token>& t, size_t from) {
    std::string state;
    for (size_t i = from; i < t.size() && i < from + 16; ++i) {
      if (t[i].kind == TokKind::kIdent) {
        state = t[i].text;
      } else if (!IsPunct(t, i, "::")) {
        break;
      }
    }
    return state;
  }

  void CheckStateMachines() {
    if (config_.spec_text.empty()) return;
    std::vector<Machine> machines = ParseSpec();
    for (Machine& m : machines) {
      // Gather every read/write of the field across the machine's scope,
      // bucketed by enclosing function.
      struct Write {
        int fn;
        int file;
        int line;
        std::string to;
        bool decl_init;
      };
      std::vector<Write> writes;
      std::map<int, std::set<std::string>> guards;  // fn -> compared states
      for (size_t fi = 0; fi < functions_.size(); ++fi) {
        const FunctionDef& fn = functions_[fi];
        const LexedFile& f = lexed_[static_cast<size_t>(fn.file)];
        if (!InPrefix(f.src->path, m.scope)) continue;
        const std::vector<Token>& t = f.tokens;
        for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
          if (!IsTok(t, k, TokKind::kIdent, m.field.c_str())) continue;
          if (IsPunct(t, k + 1, "=") && IsPunct(t, k + 2, "=")) {
            const std::string s = StateAfter(t, k + 3);
            if (m.states.count(s)) guards[static_cast<int>(fi)].insert(s);
          } else if (IsPunct(t, k + 1, "!") && IsPunct(t, k + 2, "=")) {
            const std::string s = StateAfter(t, k + 3);
            if (m.states.count(s)) guards[static_cast<int>(fi)].insert(s);
          } else if (IsPunct(t, k + 1, "=")) {
            writes.push_back(Write{static_cast<int>(fi), fn.file, t[k].line,
                                   StateAfter(t, k + 2), false});
          }
        }
      }
      // Field declarations with a default initializer (`Phase phase =
      // Phase::kOffered;`) sit outside any function body; scan whole
      // files for `<ident> field = <state>;`.
      for (size_t li = 0; li < lexed_.size(); ++li) {
        const LexedFile& f = lexed_[li];
        if (!InPrefix(f.src->path, m.scope)) continue;
        const std::vector<Token>& t = f.tokens;
        for (size_t k = 1; k + 1 < t.size(); ++k) {
          if (!IsTok(t, k, TokKind::kIdent, m.field.c_str())) continue;
          if (!IsIdent(t, k - 1)) continue;
          if (!IsPunct(t, k + 1, "=") || IsPunct(t, k + 2, "=")) continue;
          if (EnclosingFunction(static_cast<int>(li), k) != -1) continue;
          writes.push_back(Write{-1, static_cast<int>(li), t[k].line,
                                 StateAfter(t, k + 2), true});
        }
      }

      for (const Write& w : writes) {
        const LexedFile& f = lexed_[static_cast<size_t>(w.file)];
        if (w.decl_init) {
          if (!m.init.empty() && w.to != m.init) {
            Report(f, w.line, "state-machine",
                   m.name + ": field '" + m.field + "' defaults to '" +
                       w.to + "' but the spec declares init state '" +
                       m.init + "'");
          }
          continue;
        }
        const FunctionDef& fn = functions_[static_cast<size_t>(w.fn)];
        if (!m.states.count(w.to)) {
          Report(f, w.line, "state-machine",
                 m.name + ": '" + fn.qualified + "' assigns '" + w.to +
                     "', which is not a declared state");
          continue;
        }
        bool via_ok = false;
        bool guard_ok = false;
        const std::set<std::string>& g = guards[w.fn];
        for (Edge& e : m.edges) {
          if (e.via != fn.name || e.to != w.to) continue;
          via_ok = true;
          if (g.empty() || g.count(e.from)) {
            e.performed = true;
            guard_ok = true;
          }
        }
        if (!via_ok) {
          Report(f, w.line, "state-machine",
                 m.name + ": '" + fn.qualified + "' assigns state '" +
                     w.to + "' but the spec declares no '" + w.to +
                     "' edge via this handler");
        } else if (!guard_ok) {
          std::string seen;
          for (const std::string& s : g) {
            seen += (seen.empty() ? "" : ", ") + s;
          }
          Report(f, w.line, "state-machine",
                 m.name + ": '" + fn.qualified + "' transitions {" + seen +
                     "} -> '" + w.to +
                     "' but no such edge is declared for this handler");
        }
      }
      // The reverse direction: every declared edge must be backed by
      // code, and every via-handler must still exist — a refactor that
      // renames a handler or drops a transition must update the spec.
      for (const Edge& e : m.edges) {
        if (by_name_.find(e.via) == by_name_.end()) {
          SpecError(e.line, m.name + ": via-function '" + e.via +
                                "' is not defined anywhere in the tree");
        } else if (!e.performed) {
          SpecError(e.line, m.name + ": declared edge " + e.from + " -> " +
                                e.to + " via " + e.via +
                                " is performed by no code in scope");
        }
      }
    }
  }

  int EnclosingFunction(int file, size_t tok) const {
    for (size_t i = 0; i < functions_.size(); ++i) {
      const FunctionDef& fn = functions_[i];
      if (fn.file == file && tok > fn.body_begin && tok < fn.body_end) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // --- rule: wire-completeness --------------------------------------------

  void CheckWireCompleteness() {
    struct Kind {
      std::string name;
      long value;
      int file;
      int line;
      std::string body;  // registered body struct, when found
    };
    std::vector<Kind> kinds;
    std::map<std::string, size_t> by_enumerator;
    for (size_t li = 0; li < lexed_.size(); ++li) {
      const std::vector<Token>& t = lexed_[li].tokens;
      for (size_t k = 0; k + 1 < t.size(); ++k) {
        if (!IsIdentText(t, k, "enum")) continue;
        size_t n = k + 1;
        if (IsIdentText(t, n, "class") || IsIdentText(t, n, "struct")) ++n;
        if (!IsIdent(t, n)) continue;
        const std::string& ename = t[n].text;
        if (ename.size() < 7 ||
            ename.compare(ename.size() - 7, 7, "MsgKind") != 0) {
          continue;
        }
        while (n < t.size() && !IsPunct(t, n, "{") && !IsPunct(t, n, ";")) {
          ++n;
        }
        if (!IsPunct(t, n, "{")) continue;  // forward declaration
        long next_value = 0;
        for (size_t i = n + 1; i < t.size() && !IsPunct(t, i, "}"); ++i) {
          if (!IsIdent(t, i)) continue;
          Kind kind;
          kind.name = t[i].text;
          kind.file = static_cast<int>(li);
          kind.line = t[i].line;
          if (IsPunct(t, i + 1, "=") && i + 2 < t.size() &&
              t[i + 2].kind == TokKind::kNumber) {
            kind.value = std::strtol(t[i + 2].text.c_str(), nullptr, 0);
            i += 2;
          } else {
            kind.value = next_value;
          }
          next_value = kind.value + 1;
          by_enumerator[kind.name] = kinds.size();
          kinds.push_back(kind);
          while (i < t.size() && !IsPunct(t, i, ",") && !IsPunct(t, i, "}")) {
            ++i;
          }
          if (IsPunct(t, i, "}")) break;
        }
      }
    }

    // Column 2: RegisterBody(kKind, MakeCodec<KindBody>(...)) in src/wire.
    for (size_t li = 0; li < lexed_.size(); ++li) {
      const LexedFile& f = lexed_[li];
      if (!seve_lint::InDir(f.src->path, "src/wire")) continue;
      const std::vector<Token>& t = f.tokens;
      for (size_t k = 0; k + 2 < t.size(); ++k) {
        if (!IsIdentText(t, k, "RegisterBody") || !IsPunct(t, k + 1, "(")) {
          continue;
        }
        if (!IsIdent(t, k + 2)) continue;
        const std::string& enumerator = t[k + 2].text;
        std::string body;
        for (size_t i = k + 3; i < t.size() && i < k + 10; ++i) {
          if (IsIdentText(t, i, "MakeCodec") && IsPunct(t, i + 1, "<") &&
              IsIdent(t, i + 2)) {
            body = t[i + 2].text;
            break;
          }
        }
        auto it = by_enumerator.find(enumerator);
        if (it == by_enumerator.end()) {
          if (enumerator == "int" || enumerator == "kind") continue;  // decl
          Report(f, t[k + 2].line, "wire-completeness",
                 "RegisterBody('" + enumerator +
                     "') does not match any *MsgKind enumerator");
          continue;
        }
        kinds[it->second].body = body;
      }
    }

    // Columns 3 and 4: round-trip coverage and the fuzz corpus. Only
    // checked when those files are part of the input set.
    const LexedFile* roundtrip = FindFile(config_.roundtrip_test_path);
    const LexedFile* fuzz = FindFile(config_.fuzz_harness_path);
    std::set<std::string> roundtrip_idents;
    if (roundtrip != nullptr) {
      for (const Token& tok : roundtrip->tokens) {
        if (tok.kind == TokKind::kIdent) roundtrip_idents.insert(tok.text);
      }
    }
    std::set<long> fuzz_kinds;
    int fuzz_list_line = 0;
    if (fuzz != nullptr) {
      const std::vector<Token>& t = fuzz->tokens;
      for (size_t k = 0; k < t.size(); ++k) {
        if (!IsIdentText(t, k, "kAllKinds")) continue;
        fuzz_list_line = t[k].line;
        while (k < t.size() && !IsPunct(t, k, "{")) ++k;
        for (; k < t.size() && !IsPunct(t, k, "}"); ++k) {
          if (t[k].kind == TokKind::kNumber) {
            fuzz_kinds.insert(std::strtol(t[k].text.c_str(), nullptr, 0));
          }
        }
        break;
      }
      if (fuzz_list_line == 0) {
        findings_.push_back(Finding{fuzz->src->path, 1, "wire-completeness",
                                    "fuzz harness has no kAllKinds list",
                                    {}});
      }
    }

    for (const Kind& kind : kinds) {
      const LexedFile& f = lexed_[static_cast<size_t>(kind.file)];
      if (kind.body.empty()) {
        Report(f, kind.line, "wire-completeness",
               "kind " + kind.name + " (= " + std::to_string(kind.value) +
                   ") is declared but has no RegisterBody codec in "
                   "src/wire");
        continue;  // downstream columns are meaningless without a codec
      }
      if (roundtrip != nullptr && !roundtrip_idents.count(kind.body)) {
        Report(f, kind.line, "wire-completeness",
               "kind " + kind.name + " ('" + kind.body +
                   "') never appears in " + config_.roundtrip_test_path);
      }
      if (fuzz != nullptr && !fuzz_kinds.empty() &&
          !fuzz_kinds.count(kind.value)) {
        Report(f, kind.line, "wire-completeness",
               "kind " + kind.name + " (= " + std::to_string(kind.value) +
                   ") is missing from kAllKinds in " +
                   config_.fuzz_harness_path);
      }
    }
    if (fuzz != nullptr) {
      for (long v : fuzz_kinds) {
        bool declared = false;
        for (const Kind& kind : kinds) declared |= kind.value == v;
        if (!declared) {
          findings_.push_back(
              Finding{fuzz->src->path, fuzz_list_line, "wire-completeness",
                      "kAllKinds lists " + std::to_string(v) +
                          ", which is no declared *MsgKind",
                      {}});
        }
      }
    }
  }

  const LexedFile* FindFile(const std::string& path) const {
    for (const LexedFile& f : lexed_) {
      if (f.src->path == path) return &f;
    }
    return nullptr;
  }

  // --- annotation hygiene -------------------------------------------------

  bool InForbidPrefix(const std::string& p) const {
    for (const std::string& prefix : config_.forbid_allow_prefixes) {
      if (InPrefix(p, prefix)) return true;
    }
    return false;
  }

  void CheckForbiddenAllows() {
    for (const LexedFile& f : lexed_) {
      if (!InForbidPrefix(f.src->path)) continue;
      for (int line : f.analyze_annotation_lines) {
        findings_.push_back(
            Finding{f.src->path, line, "forbidden-allow",
                    "seve-analyze annotations are banned under this path "
                    "(protected digest path); fix the code instead",
                    {}});
      }
    }
  }

  void CheckBadAnnotations() {
    for (const LexedFile& f : lexed_) {
      for (const BadAnnotation& bad : f.bad_annotations) {
        if (bad.tool != AnnotationTool::kAnalyze) continue;
        findings_.push_back(Finding{f.src->path, bad.line, "bad-annotation",
                                    "malformed seve-analyze annotation: " +
                                        bad.reason,
                                    {}});
      }
    }
  }

  void CheckUnusedAllows() {
    for (const LexedFile& f : lexed_) {
      if (InForbidPrefix(f.src->path)) continue;  // already forbidden-allow
      for (const Allow& a : f.allows) {
        if (a.tool != AnnotationTool::kAnalyze) continue;
        if (used_allows_.count(&a)) continue;
        findings_.push_back(
            Finding{f.src->path, a.line, "unused-allow",
                    "allow(" + a.rule +
                        ") suppresses nothing; delete it or fix the rule "
                        "name",
                    {}});
      }
    }
  }

  const AnalyzeConfig& config_;
  std::vector<LexedFile> lexed_;
  std::vector<FunctionDef> functions_;
  std::map<std::string, std::vector<int>> by_name_;
  std::map<std::string, std::vector<int>> by_qualified_;
  std::vector<std::set<int>> closures_;   // file -> transitive includes
  std::vector<std::set<int>> calls_;      // function -> callees
  std::vector<int> parents_;              // BFS tree of the last Reach()
  // Keyed by address for identity (addresses point into lexed_[i].allows,
  // which never reallocate after construction). Membership-only.
  std::set<const Allow*> used_allows_;
  std::vector<Finding> findings_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

AnalyzeConfig DefaultConfig() {
  AnalyzeConfig config;
  config.digest_roots = {
      "WorldState::Digest",         "WorldState::DigestOf",
      "WorldState::RescanDigest",   "DigestReport",
      "SeveShardServer::GlobalStampOf",
      "SeveShardServer::StampOffsetAt",
      "SeveShardServer::LocalPosOfStamp",
      "SeveShardServer::FenceStampsAbove",
      "ShardStamp::Global",
  };
  // The per-tick fan-out kernels, the conflict walk of Algorithms 6 and
  // 7 (once per submission and once per validity decision), the world
  // queries that run on every evaluation of every move, by every replica,
  // and the event queue's push and pop, which every scheduled event
  // passes through.
  config.hot_roots = {
      "ServerQueue::WalkConflicts",
      "SeveServer::FlushSlot",
      "SeveServer::FlushAll",
      "SeveServer::OnPushCycle",
      "SeveServer::RouteToClients",
      "SeveShardServer::QueueEscalatedPush",
      "SeveShardServer::FlushEscalatedPushes",
      "WallField::CountNear",
      "WallField::FirstHit",
      "ManhattanWorld::CountAvatarsNear",
      "EventLoop::PushEntry",
      "EventLoop::PopDue",
  };
  // Handing a frame to the simulated network ends the sender's tick;
  // Node::Deliver runs in a later event-loop slot on the receiver's
  // budget, so hot reachability must not leak through it into every
  // message handler in the tree.
  config.hot_barriers = {"Network::Send"};
  config.spec_path = "src/shard/protocol_states.sm";
  config.forbid_allow_prefixes = {
      "src/store",          "src/wire/frame",       "src/wire/codec",
      "src/wire/wire_value", "src/wire/serializers", "src/wire/audit",
  };
  return config;
}

std::vector<Finding> AnalyzeFiles(const std::vector<SourceFile>& files,
                                  const AnalyzeConfig& config) {
  return Analyzer(files, config).Run();
}

bool AnalyzeTree(const std::string& root, AnalyzeConfig config,
                 std::vector<Finding>* findings, int* files_checked,
                 std::string* error) {
  namespace fs = std::filesystem;
  const fs::path src_root = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src_root, ec)) {
    *error = "not a source tree (missing " + src_root.string() + ")";
    return false;
  }
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(src_root, ec), end;
       it != end && !ec; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    paths.push_back(fs::relative(it->path(), root, ec).generic_string());
  }
  if (ec) {
    *error = "walking " + src_root.string() + ": " + ec.message();
    return false;
  }
  // The wire test files are part of the analysis input: wire-completeness
  // cross-checks their coverage against the enum declarations.
  for (const std::string& extra :
       {config.roundtrip_test_path, config.fuzz_harness_path}) {
    if (!extra.empty() && fs::is_regular_file(fs::path(root) / extra, ec)) {
      paths.push_back(extra);
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& rel : paths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      *error = "cannot read " + rel;
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(SourceFile{rel, buf.str()});
  }
  if (!config.spec_path.empty() && config.spec_text.empty()) {
    std::ifstream in(fs::path(root) / config.spec_path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      config.spec_text = buf.str();
    }
  }
  *files_checked = static_cast<int>(files.size());
  *findings = AnalyzeFiles(files, config);
  return true;
}

std::string ToJson(const std::vector<Finding>& findings, int files_checked) {
  std::ostringstream out;
  out << "{\"files_checked\":" << files_checked << ",\"finding_count\":"
      << findings.size() << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ",";
    out << "{\"file\":\"" << JsonEscape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << JsonEscape(f.rule) << "\",\"message\":\""
        << JsonEscape(f.message) << "\",\"chain\":[";
    for (size_t c = 0; c < f.chain.size(); ++c) {
      if (c != 0) out << ",";
      out << "\"" << JsonEscape(f.chain[c]) << "\"";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace seve_analyze
