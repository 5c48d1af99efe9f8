#include "lint.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace mbrc::lint {

namespace {

using analysis::FileScan;
using analysis::TokKind;
using analysis::Token;
using analysis::is;
using analysis::is_ident;
using analysis::match;
using analysis::skip_angles;
using analysis::tokenize;

bool fp_member_ref(const std::vector<Token>& t, std::size_t i,
                   const std::set<std::string>& fp_names) {
  if (!is_ident(t, i) || !fp_names.contains(t[i].text)) return false;
  if (i == 0) return true;  // plain variable
  const std::string& prev = t[i - 1].text;
  // Either a member access (.slack / ->weight) or a plain variable.
  return prev == "." || prev == "->" ||
         (t[i - 1].kind != TokKind::kIdent);
}

const std::set<std::string> kEmitCalls = {
    "push_back", "emplace_back", "insert", "emplace", "append",
    "add", "add_edge", "add_node", "push", "write"};

const std::set<std::string> kSortCalls = {
    "sort", "stable_sort", "nth_element", "partial_sort",
    "min_element", "max_element"};

const std::set<std::string> kRngIdents = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};

const std::set<std::string> kIdTypes = {"CellId", "PinId", "NetId"};

const std::set<std::string> kParallelCalls = {"parallel_for",
                                              "parallel_transform"};

// Wall-clock sources (R3 clock scoping). Duration constructors like
// std::chrono::seconds(0) or microseconds(200) are deliberately absent:
// they name spans of time, not reads of the clock.
const std::set<std::string> kClockIdents = {
    "steady_clock", "system_clock", "high_resolution_clock",
    "clock_gettime", "gettimeofday"};

// ---------------------------------------------------------------------------
// Cross-file tables.
// ---------------------------------------------------------------------------

struct GlobalTables {
  std::set<std::string> unordered_aliases;  // e.g. SkewMap
  std::set<std::string> fp_names;           // double/float fields & variables
  // Unordered container *members* (trailing-underscore names only): they are
  // declared in headers but iterated in the matching .cpp, so they must be
  // visible across files. Restricting the global table to the member naming
  // convention keeps common local names (`partitions`, `bins`) from leaking
  // between unrelated translation units.
  std::set<std::string> unordered_vars;
};

bool is_unordered(const std::string& text) {
  return text == "unordered_map" || text == "unordered_set" ||
         text == "unordered_multimap" || text == "unordered_multiset";
}

void collect_global(const FileScan& scan, GlobalTables& g) {
  const auto& t = scan.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // using NAME = [std::]unordered_map<...>
    if (is(t, i, "using") && is_ident(t, i + 1) && is(t, i + 2, "=")) {
      std::size_t j = i + 3;
      if (is(t, j, "std") && is(t, j + 1, "::")) j += 2;
      if (j < t.size() && is_unordered(t[j].text))
        g.unordered_aliases.insert(t[i + 1].text);
    }
    // double NAME / float NAME where NAME is a variable or field (the next
    // token rules out function declarations `double name(...)`).
    if ((is(t, i, "double") || is(t, i, "float")) && is_ident(t, i + 1)) {
      const std::string& next = i + 2 < t.size() ? t[i + 2].text : ";";
      if (next == ";" || next == "=" || next == "," || next == ")" ||
          next == "{" || next == ":")
        g.fp_names.insert(t[i + 1].text);
    }
  }
}

bool decl_terminator(const std::string& text) {
  return text == ";" || text == "=" || text == "," || text == ")" ||
         text == "{" || text == ":" || text == "(";
}

/// Declarations of unordered containers (direct or alias-typed), appended to
/// `out`: `[std::]unordered_map<...> [&|*] NAME` and `ALIAS [&|*] NAME`.
void collect_unordered_decls(const std::vector<Token>& t,
                             const std::set<std::string>& aliases,
                             std::set<std::string>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && is_unordered(t[i].text) &&
        is(t, i + 1, "<")) {
      std::size_t j = skip_angles(t, i + 1);
      while (is(t, j, "&") || is(t, j, "*") || is(t, j, "const")) ++j;
      if (is_ident(t, j)) out.insert(t[j].text);
    }
    if (t[i].kind == TokKind::kIdent && aliases.contains(t[i].text)) {
      std::size_t j = i + 1;
      while (is(t, j, "&") || is(t, j, "*")) ++j;
      if (is_ident(t, j) && j + 1 < t.size() &&
          decl_terminator(t[j + 1].text) && t[j + 1].text != "(")
        out.insert(t[j].text);
    }
  }
}

/// Second global pass (needs aliases from every file before it can resolve
/// alias-typed members, so it cannot be folded into collect_global). Only
/// member-convention names (trailing underscore) go global.
void collect_global_vars(const FileScan& scan, GlobalTables& g) {
  std::set<std::string> all;
  collect_unordered_decls(scan.tokens, g.unordered_aliases, all);
  for (const std::string& name : all)
    if (name.ends_with('_')) g.unordered_vars.insert(name);
}

struct VarTables {
  std::set<std::string> unordered_vars;      // locals/params in this file
  std::set<std::string> unordered_iters;     // iterators from NAME.find(...)
  std::map<std::string, std::string> id_vars;  // name -> CellId/PinId/NetId
};

VarTables collect_vars(const FileScan& scan, const GlobalTables& g) {
  VarTables v;
  const auto& t = scan.tokens;
  collect_unordered_decls(t, g.unordered_aliases, v.unordered_vars);
  for (std::size_t i = 0; i < t.size(); ++i) {
    // IT = NAME.find(  -- iterator into an unordered container
    if (is_ident(t, i) &&
        (v.unordered_vars.contains(t[i].text) ||
         g.unordered_vars.contains(t[i].text)) &&
        is(t, i + 1, ".") && is(t, i + 2, "find") && is(t, i + 3, "(") &&
        i >= 2 && is(t, i - 1, "=") && is_ident(t, i - 2))
      v.unordered_iters.insert(t[i - 2].text);
    // CellId/PinId/NetId [&] NAME  (declaration, not construction)
    if (t[i].kind == TokKind::kIdent && kIdTypes.contains(t[i].text)) {
      std::size_t j = i + 1;
      while (is(t, j, "&")) ++j;
      if (is_ident(t, j) && j + 1 < t.size() &&
          decl_terminator(t[j + 1].text) && t[j + 1].text != "(")
        v.id_vars.emplace(t[j].text, t[i].text);
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Rule engine.
// ---------------------------------------------------------------------------

struct Engine {
  const GlobalTables& global;
  const LintOptions& options;
  std::vector<Finding>& findings;
  std::vector<Finding>& bad_suppressions;

  const FileScan* scan = nullptr;
  VarTables vars;

  bool rule_enabled(const char* rule) const {
    return options.rules.empty() ||
           std::find(options.rules.begin(), options.rules.end(), rule) !=
               options.rules.end();
  }

  void emit(const char* rule, const Token& at, std::string message) {
    if (!rule_enabled(rule)) return;
    Finding f;
    f.rule = rule;
    f.path = scan->file->path;
    f.line = at.line;
    f.col = at.col;
    f.message = std::move(message);
    analysis::finish_finding(f, *scan, "mbrc-lint", bad_suppressions);
    findings.push_back(std::move(f));
  }

  // --- R1: unordered iteration feeding results -----------------------------

  bool body_emits(std::size_t begin, std::size_t end) const {
    const auto& t = scan->tokens;
    for (std::size_t i = begin; i < end; ++i) {
      if (t[i].kind == TokKind::kIdent && kEmitCalls.contains(t[i].text) &&
          is(t, i + 1, "("))
        return true;
      if (t[i].text == "+=" || t[i].text == "<<") return true;
    }
    return false;
  }

  void rule_r1() {
    const auto& t = scan->tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!is(t, i, "for") || !is(t, i + 1, "(")) continue;
      const std::size_t close = match(t, i + 1, "(", ")");
      // Range-for: a single ':' at paren depth 1.
      std::size_t colon = t.size();
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t[j].text == "(" || t[j].text == "[") ++depth;
        if (t[j].text == ")" || t[j].text == "]") --depth;
        if (t[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == t.size()) continue;
      std::string container;
      for (std::size_t j = colon + 1; j + 1 < close; ++j) {
        if (!is_ident(t, j)) continue;
        if (vars.unordered_vars.contains(t[j].text) ||
            global.unordered_vars.contains(t[j].text) ||
            vars.unordered_iters.contains(t[j].text)) {
          container = t[j].text;
          break;
        }
      }
      if (container.empty()) continue;
      // Body extent: braced block or single statement.
      std::size_t body_begin = close, body_end;
      if (is(t, close, "{")) {
        body_end = match(t, close, "{", "}");
      } else {
        body_end = body_begin;
        while (body_end < t.size() && t[body_end].text != ";") ++body_end;
      }
      if (!body_emits(body_begin, body_end)) continue;
      emit("R1", t[i],
           "iteration over unordered container '" + container +
               "' emits into flow results; hash order is "
               "implementation-defined -- iterate a sorted snapshot or an "
               "insertion-ordered vector instead");
    }
  }

  // --- R2: FP-only comparator tie-breaks -----------------------------------

  /// Is the identifier at `k` a floating-point operand inside a comparator?
  /// Member accesses (`.slack`, `->weight`) resolve against the global FP
  /// field table; plain identifiers only count when the lambda's own
  /// parameter list declares them double/float, which keeps generic names
  /// like `a`/`b` from inheriting FP-ness from unrelated declarations.
  bool cmp_fp_operand(std::size_t k,
                      const std::set<std::string>& lambda_fp) const {
    const auto& t = scan->tokens;
    if (!is_ident(t, k)) return false;
    if (k > 0 && (t[k - 1].text == "." || t[k - 1].text == "->"))
      return global.fp_names.contains(t[k].text);
    return lambda_fp.contains(t[k].text);
  }

  void rule_r2() {
    const auto& t = scan->tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || !kSortCalls.contains(t[i].text) ||
          !is(t, i + 1, "("))
        continue;
      const std::size_t close = match(t, i + 1, "(", ")");
      // The comparator is the last lambda argument.
      std::size_t lambda = t.size();
      for (std::size_t j = i + 2; j < close; ++j)
        if (t[j].text == "[" &&
            (t[j - 1].text == "," || t[j - 1].text == "("))
          lambda = j;
      if (lambda == t.size()) continue;
      std::size_t j = match(t, lambda, "[", "]");
      std::set<std::string> lambda_fp;
      if (is(t, j, "(")) {
        const std::size_t params_end = match(t, j, "(", ")");
        for (std::size_t k = j + 1; k + 1 < params_end; ++k)
          if ((is(t, k, "double") || is(t, k, "float")) && is_ident(t, k + 1))
            lambda_fp.insert(t[k + 1].text);
        j = params_end;
      }
      while (j < close && t[j].text != "{") ++j;
      if (j >= close) continue;
      const std::size_t body_end = match(t, j, "{", "}");

      // The comparator's *last* return decides ties: flag when it compares
      // floating-point data with no integral comparison anywhere in the
      // expression (a correct total order ends on an integral key).
      std::size_t last_ret = t.size();
      for (std::size_t k = j; k < body_end; ++k)
        if (is(t, k, "return")) last_ret = k;
      if (last_ret == t.size()) continue;
      std::size_t ret_end = last_ret;
      while (ret_end < body_end && t[ret_end].text != ";") ++ret_end;

      bool compares = false;
      bool integral_cmp = false;
      std::string fp_field;
      for (std::size_t k = last_ret + 1; k < ret_end; ++k) {
        const std::string& x = t[k].text;
        if (x == "<" || x == ">" || x == "<=" || x == ">=") {
          compares = true;
          // `a < b` on non-FP operands is an integral tie-break: both
          // neighbors are identifiers and neither classifies floating-point.
          if (is_ident(t, k - 1) && is_ident(t, k + 1) &&
              !cmp_fp_operand(k - 1, lambda_fp) &&
              !cmp_fp_operand(k + 1, lambda_fp))
            integral_cmp = true;
        }
        if (cmp_fp_operand(k, lambda_fp)) fp_field = t[k].text;
      }
      if (!compares || fp_field.empty() || integral_cmp) continue;
      emit("R2", t[last_ret],
           "comparator for '" + t[i].text +
               "' breaks final ties on floating-point '" + fp_field +
               "'; the order is not total under FP ties -- add an integral "
               "tie-breaker (an id or index)");
    }
  }

  // --- R3: nondeterminism sources outside util/rng.hpp ---------------------

  bool r3_exempt() const {
    for (const std::string& suffix : options.rng_exempt_paths) {
      const std::string& p = scan->file->path;
      if (p.size() >= suffix.size() &&
          p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
        return true;
    }
    return false;
  }

  /// Clock exemption is a substring match (unlike the RNG suffix match):
  /// it names whole directories (src/obs/) as well as single files
  /// (util/stopwatch.hpp).
  bool clock_exempt() const {
    for (const std::string& part : options.clock_exempt_paths)
      if (scan->file->path.find(part) != std::string::npos) return true;
    return false;
  }

  void rule_r3() {
    const bool rng_ok = r3_exempt();
    const bool clock_ok = clock_exempt();
    const auto& t = scan->tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdent && !clock_ok &&
          kClockIdents.contains(t[i].text))
        emit("R3", t[i],
             "reads the wall clock via '" + t[i].text +
                 "' -- wall-clock time is measurement-only and confined to "
                 "src/obs/ and util/stopwatch.hpp "
                 "(DESIGN.md section 11); time a region with "
                 "obs::StageTimer or obs::Span instead");
      if (rng_ok) continue;
      if (t[i].kind == TokKind::kIdent) {
        if ((t[i].text == "rand" || t[i].text == "srand") &&
            is(t, i + 1, "(") && !is(t, i - 1, ".") && !is(t, i - 1, "->"))
          emit("R3", t[i],
               "call to '" + t[i].text +
                   "()' -- all randomness must come from util::Rng "
                   "(src/util/rng.hpp) so runs are reproducible");
        if (kRngIdents.contains(t[i].text))
          emit("R3", t[i],
               "use of 'std::" + t[i].text +
                   "' -- all randomness must come from util::Rng "
                   "(src/util/rng.hpp) so runs are reproducible");
      }
      // Streaming a pointer value: addresses differ run to run under ASLR.
      if (t[i].text == "<<" && is(t, i + 1, "&") && is_ident(t, i + 2))
        emit("R3", t[i],
             "streams the address of '" + t[i + 2].text +
                 "'; pointer values differ per run -- stream an id or a "
                 "name instead");
      if (t[i].text == "<<" && is(t, i + 1, "static_cast") &&
          is(t, i + 2, "<")) {
        const std::size_t end = skip_angles(t, i + 2);
        for (std::size_t k = i + 2; k < end; ++k)
          if (t[k].text == "void")
            emit("R3", t[i],
                 "streams a pointer cast to void*; addresses differ per "
                 "run -- stream an id or a name instead");
      }
    }
  }

  // --- R4: raw arithmetic crossing typed id spaces -------------------------

  void rule_r4() {
    const auto& t = scan->tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      // TId{...} / TId(...) construction whose argument reaches into a
      // different id space via `.index`, or does arithmetic on `.index`.
      if (t[i].kind == TokKind::kIdent && kIdTypes.contains(t[i].text) &&
          (is(t, i + 1, "{") || is(t, i + 1, "("))) {
        const bool brace = is(t, i + 1, "{");
        const std::size_t end = brace ? match(t, i + 1, "{", "}")
                                      : match(t, i + 1, "(", ")");
        bool has_index = false, has_arith = false;
        std::string cross;
        for (std::size_t k = i + 2; k + 1 < end; ++k) {
          if (is_ident(t, k) && is(t, k + 1, ".") && is(t, k + 2, "index")) {
            has_index = true;
            const auto it = vars.id_vars.find(t[k].text);
            if (it != vars.id_vars.end() && it->second != t[i].text)
              cross = t[k].text + " (" + it->second + ")";
          }
          const std::string& x = t[k].text;
          if (x == "+" || x == "-" || x == "*" || x == "/" || x == "%")
            has_arith = true;
        }
        if (!cross.empty())
          emit("R4", t[i],
               "constructs " + t[i].text + " from the .index of " + cross +
                   " -- crossing typed id spaces defeats the Id<Tag> "
                   "protection of netlist/ids.hpp");
        else if (has_index && has_arith)
          emit("R4", t[i],
               "constructs " + t[i].text +
                   " from raw arithmetic on an id's .index -- derive ids "
                   "from the owning container, not index math");
      }
      // VAR1.index <op> VAR2.index across different id types.
      if (is_ident(t, i) && is(t, i + 1, ".") && is(t, i + 2, "index") &&
          i + 3 < t.size()) {
        const std::string& op = t[i + 3].text;
        if ((op == "==" || op == "!=" || op == "<" || op == ">" ||
             op == "<=" || op == ">=") &&
            is_ident(t, i + 4) && is(t, i + 5, ".") && is(t, i + 6, "index")) {
          const auto a = vars.id_vars.find(t[i].text);
          const auto b = vars.id_vars.find(t[i + 4].text);
          if (a != vars.id_vars.end() && b != vars.id_vars.end() &&
              a->second != b->second)
            emit("R4", t[i],
                 "compares .index across id spaces: " + t[i].text + " (" +
                     a->second + ") vs " + t[i + 4].text + " (" + b->second +
                     ") -- distinct Id<Tag> types are never comparable");
        }
      }
    }
  }

  // --- R5: FP accumulation inside parallel lambdas -------------------------

  void rule_r5() {
    const auto& t = scan->tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent ||
          !kParallelCalls.contains(t[i].text) || !is(t, i + 1, "("))
        continue;
      const std::size_t close = match(t, i + 1, "(", ")");
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].text != "[" ||
            !(t[j - 1].text == "," || t[j - 1].text == "("))
          continue;
        std::size_t k = match(t, j, "[", "]");
        if (is(t, k, "(")) k = match(t, k, "(", ")");
        while (k < close && t[k].text != "{") ++k;
        if (k >= close) continue;
        const std::size_t body_end = match(t, k, "{", "}");
        for (std::size_t m = k; m < body_end; ++m) {
          if ((t[m].text == "+=" || t[m].text == "-=") && m > 0 &&
              fp_member_ref(t, m - 1, global.fp_names))
            emit("R5", t[m],
                 "accumulates into floating-point '" + t[m - 1].text +
                     "' inside a " + t[i].text +
                     " lambda; FP addition is not associative, so the "
                     "reduction order leaks into the result -- write "
                     "per-task slots and fold them on one thread");
          // x = x + ... with x floating-point.
          if (is(t, m, "=") && m > 0 && is_ident(t, m - 1) &&
              is_ident(t, m + 1) && t[m - 1].text == t[m + 1].text &&
              (is(t, m + 2, "+") || is(t, m + 2, "-")) &&
              global.fp_names.contains(t[m - 1].text))
            emit("R5", t[m],
                 "accumulates into floating-point '" + t[m - 1].text +
                     "' inside a " + t[i].text +
                     " lambda; FP addition is not associative, so the "
                     "reduction order leaks into the result -- write "
                     "per-task slots and fold them on one thread");
        }
        j = body_end;
      }
    }
  }

  // --- R6: wall-clock values feeding flow decisions ------------------------

  void rule_r6() {
    if (clock_exempt()) return;
    const auto& t = scan->tokens;

    // Stopwatch-typed variables declared in this file (locals, members,
    // reference parameters).
    std::set<std::string> watches;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!is(t, i, "Stopwatch")) continue;
      std::size_t j = i + 1;
      while (is(t, j, "&") || is(t, j, "*") || is(t, j, "const")) ++j;
      if (is_ident(t, j) && j + 1 < t.size() &&
          decl_terminator(t[j + 1].text) && t[j + 1].text != "(")
        watches.insert(t[j].text);
    }
    if (watches.empty()) return;

    // Plain variables assigned from a stopwatch reading. Member accesses on
    // the left (`result.total_seconds = clock.seconds()`) are the sanctioned
    // report-recording pattern and stay untracked.
    std::set<std::string> timing_vars;
    for (std::size_t i = 0; i + 5 < t.size(); ++i) {
      if (is_ident(t, i) && is(t, i + 1, "=") && is_ident(t, i + 2) &&
          watches.contains(t[i + 2].text) && is(t, i + 3, ".") &&
          is(t, i + 4, "seconds") && is(t, i + 5, "(") &&
          (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->")))
        timing_vars.insert(t[i].text);
    }

    // `SW.seconds()` whose closing paren sits at `close`.
    const auto seconds_call_ending_at = [&](std::size_t close) -> std::string {
      if (close < 4 || t[close].text != ")" || t[close - 1].text != "(" ||
          t[close - 2].text != "seconds" || t[close - 3].text != ".")
        return {};
      if (is_ident(t, close - 4) && watches.contains(t[close - 4].text))
        return t[close - 4].text;
      return {};
    };

    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      const std::string& op = t[i].text;
      if (op != "<" && op != ">" && op != "<=" && op != ">=") continue;
      std::string culprit = seconds_call_ending_at(i - 1);
      if (culprit.empty() && is_ident(t, i - 1) &&
          timing_vars.contains(t[i - 1].text))
        culprit = t[i - 1].text;
      if (culprit.empty() && is_ident(t, i + 1) &&
          timing_vars.contains(t[i + 1].text))
        culprit = t[i + 1].text;
      if (culprit.empty() && is_ident(t, i + 1) &&
          watches.contains(t[i + 1].text) && is(t, i + 2, ".") &&
          is(t, i + 3, "seconds"))
        culprit = t[i + 1].text;
      if (culprit.empty()) continue;
      emit("R6", t[i],
           "compares a wall-clock value from '" + culprit +
               "'; timing is measurement-only and must never feed flow "
               "results (DESIGN.md section 11) -- branch on deterministic "
               "work counters (node budgets, iteration counts) instead");
    }
  }

  void run(const FileScan& file_scan) {
    scan = &file_scan;
    vars = collect_vars(file_scan, global);
    rule_r1();
    rule_r2();
    rule_r3();
    rule_r4();
    rule_r5();
    rule_r6();
  }
};

}  // namespace

LintResult run_lint(const std::vector<SourceFile>& files,
                    const LintOptions& options,
                    const std::vector<BaselineEntry>& baseline) {
  LintResult result;

  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const SourceFile& file : files) scans.push_back(tokenize(file));

  GlobalTables global;
  for (const FileScan& scan : scans) collect_global(scan, global);
  for (const FileScan& scan : scans) collect_global_vars(scan, global);

  Engine engine{global, options, result.findings, result.bad_suppressions,
                nullptr, {}};
  for (const FileScan& scan : scans) engine.run(scan);

  analysis::apply_baseline(result, baseline);
  return result;
}

}  // namespace mbrc::lint
