// mbrc-analyze rule engine. Builds a lightweight scope/dataflow model of
// each translation unit -- functions with nested scopes, per-scope
// declarations, lambda capture lists -- plus a cross-file spawn summary
// (which functions forward callables into deferred execution), then runs
// the four A-rules over the model. See analyze.hpp for the rule catalogue.
#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mbrc::analyze {
namespace {

using analysis::FileScan;
using analysis::Token;
using analysis::TokKind;
using analysis::is;
using analysis::is_ident;
using analysis::match;
using analysis::skip_angles;

// ---------------------------------------------------------------------------
// Model types.
// ---------------------------------------------------------------------------

struct Capture {
  std::string name;     // empty for a default capture
  bool by_ref = false;
  bool is_default = false;
  bool is_this = false;
  std::size_t tok = 0;  // token index of the capture's name (or '&'/'=')
};

struct LambdaInfo {
  std::size_t intro = 0;        // '[' token index
  std::size_t intro_close = 0;  // index past ']'
  std::size_t body_open = 0;    // '{' token index
  std::size_t body_close = 0;   // index past the matching '}'
  std::vector<Capture> captures;

  bool has_ref_capture() const {
    for (const auto& c : captures)
      if (c.by_ref) return true;
    return false;
  }
};

struct Decl {
  std::string name;
  std::vector<std::string> type;           // identifier tokens of the type
  std::vector<std::string> template_args;  // identifiers inside <...>
  bool is_ref = false;
  bool is_ptr = false;
  bool is_auto = false;
  std::size_t name_tok = 0;
  std::size_t init_begin = 0, init_end = 0;  // [begin, end); empty when 0,0
  int lambda_index = -1;  // lambda that initializes this decl, if any

  bool type_contains(const std::string& needle) const {
    for (const auto& s : type)
      if (s.find(needle) != std::string::npos) return true;
    for (const auto& s : template_args)
      if (s.find(needle) != std::string::npos) return true;
    return false;
  }
};

struct ScopeNode {
  std::size_t open = 0, close = 0;  // '{' index, index past '}'
  bool is_loop = false;
  // For loops: '(' of the condition/header -- the back-edge re-executes it,
  // so the A2 exceptional-gap scan must cover it too. Equals `open` when
  // there is no header (do-while bodies).
  std::size_t head = 0;
  int parent = -1;
};

struct FunctionInfo {
  std::string name;
  std::string qualifier;  // explicit or enclosing class; "" for free
  std::size_t name_tok = 0;
  std::size_t params_open = 0, params_close = 0;
  std::size_t body_open = 0, body_close = 0;
  std::vector<Decl> params;
  std::vector<Decl> locals;
  std::vector<std::string> callable_params;
  std::vector<ScopeNode> scopes;  // scopes[0] is the body
};

struct ClassRange {
  std::string name;
  std::size_t open = 0, close = 0;
};

struct FileModel {
  FileScan scan;
  std::vector<LambdaInfo> lambdas;
  std::vector<FunctionInfo> functions;
  std::vector<ClassRange> classes;
  // class name -> field names (collected at class-body depth 1)
  std::map<std::string, std::vector<std::string>> class_fields;
};

struct Project {
  std::vector<FileModel> files;
  // Function names whose callable arguments run deferred (transitively
  // reaches ThreadPool::submit/async with no wait on the forwarding path).
  std::set<std::string> spawning;
  std::map<std::string, std::vector<std::string>> class_fields;
};

// ---------------------------------------------------------------------------
// Token classification helpers.
// ---------------------------------------------------------------------------

bool is_keyword(const std::string& s) {
  static const std::set<std::string> k = {
      "alignas",     "alignof",      "auto",         "bool",
      "break",       "case",         "catch",        "char",
      "class",       "co_await",     "co_return",    "co_yield",
      "const",       "const_cast",   "consteval",    "constexpr",
      "constinit",   "continue",     "decltype",     "default",
      "delete",      "do",           "double",       "dynamic_cast",
      "else",        "enum",         "explicit",     "extern",
      "false",       "float",        "for",          "friend",
      "goto",        "if",           "inline",       "int",
      "long",        "mutable",      "namespace",    "new",
      "noexcept",    "nullptr",      "operator",     "private",
      "protected",   "public",       "reinterpret_cast",
      "return",      "short",        "signed",       "sizeof",
      "static",      "static_assert","static_cast",  "struct",
      "switch",      "template",     "this",         "thread_local",
      "throw",       "true",         "try",          "typedef",
      "typeid",      "typename",     "union",        "unsigned",
      "using",       "virtual",      "void",         "volatile",
      "while"};
  return k.count(s) != 0;
}

bool is_primitive_type(const std::string& s) {
  static const std::set<std::string> k = {"auto",  "bool",   "char", "int",
                                          "long",  "short",  "float",
                                          "double", "unsigned", "signed",
                                          "void"};
  return k.count(s) != 0;
}

/// Calls that cannot throw: the exceptional-gap scan (A2) skips these.
bool is_nonthrowing_call(const std::string& name) {
  static const std::set<std::string> k = {
      "move",      "forward",  "swap",     "size",    "empty",   "clear",
      "valid",     "load",     "store",    "fetch_add", "fetch_sub",
      "exchange",  "data",     "begin",    "end",     "c_str",   "min",
      "max",       "front",    "back",     "count",   "get_future",
      "reset",     "release",  "get",      "notify_all", "notify_one"};
  return k.count(name) != 0 || is_keyword(name);
}

/// True when the identifier at `i` (followed by '(') is a blocking wait that
/// drains deferred work: pool helpers, futures, thread joins.
bool is_wait_call(const std::vector<Token>& t, std::size_t i) {
  static const std::set<std::string> waits = {
      "help_get", "drain", "wait", "wait_for", "wait_until", "join",
      "run_one"};
  const std::string& n = t[i].text;
  if (waits.count(n) != 0) return true;
  if (n == "get" && i >= 2 &&
      (t[i - 1].text == "." || t[i - 1].text == "->") && is_ident(t, i - 2)) {
    std::string recv = t[i - 2].text;
    std::transform(recv.begin(), recv.end(), recv.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return recv.find("fut") != std::string::npos;
  }
  return false;
}

bool path_matches(const std::string& path,
                  const std::vector<std::string>& subs) {
  for (const auto& s : subs)
    if (path.find(s) != std::string::npos) return true;
  return false;
}

std::string loc_of(const Token& t) {
  std::ostringstream os;
  os << t.line << ":" << t.col;
  return os.str();
}

// ---------------------------------------------------------------------------
// Lambda discovery.
// ---------------------------------------------------------------------------

void parse_captures(const std::vector<Token>& t, std::size_t b, std::size_t e,
                    std::vector<Capture>* out) {
  std::size_t i = b;
  while (i < e) {
    // One capture entry, up to a top-level ','.
    std::size_t j = i;
    int depth = 0;
    while (j < e) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "{" || s == "[") ++depth;
      if (s == ")" || s == "}" || s == "]") --depth;
      if (s == "," && depth == 0) break;
      ++j;
    }
    if (j > i) {
      Capture c;
      c.tok = i;
      if (is(t, i, "&") && j == i + 1) {
        c.by_ref = c.is_default = true;
        out->push_back(c);
      } else if (is(t, i, "=") && j == i + 1) {
        c.is_default = true;
        out->push_back(c);
      } else if (is(t, i, "this")) {
        c.is_this = true;
        out->push_back(c);
      } else if (is(t, i, "*") && is(t, i + 1, "this")) {
        c.is_this = true;
        out->push_back(c);
      } else if (is(t, i, "&") && is_ident(t, i + 1)) {
        c.by_ref = true;
        c.name = t[i + 1].text;
        c.tok = i + 1;
        out->push_back(c);
      } else if (is_ident(t, i) && !is_keyword(t[i].text)) {
        c.name = t[i].text;  // plain or init-capture, by value either way
        out->push_back(c);
      }
    }
    i = j + 1;
  }
}

std::vector<LambdaInfo> find_lambdas(const std::vector<Token>& t) {
  std::vector<LambdaInfo> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is(t, i, "[")) continue;
    if (is(t, i + 1, "[")) {  // [[attribute]]
      std::size_t past = match(t, i, "[", "]");
      if (past > i) i = past - 1;
      continue;
    }
    if (i > 0) {
      const Token& p = t[i - 1];
      if (p.kind == TokKind::kIdent && !is_keyword(p.text)) continue;
      if (p.text == ")" || p.text == "]") continue;  // subscript
    }
    std::size_t close = match(t, i, "[", "]");
    if (close >= t.size()) continue;
    std::size_t j = close;
    if (is(t, j, "(")) j = match(t, j, "(", ")");
    bool gave_up = false;
    while (j < t.size() && !is(t, j, "{") && !gave_up) {
      if (is(t, j, "mutable") || is(t, j, "constexpr") ||
          is(t, j, "noexcept")) {
        ++j;
        if (is(t, j, "(")) j = match(t, j, "(", ")");
      } else if (is(t, j, "->")) {
        ++j;
        while (j < t.size() && !is(t, j, "{")) {
          if (is(t, j, "<")) {
            j = skip_angles(t, j);
          } else if (is_ident(t, j) || is(t, j, "::") || is(t, j, "&") ||
                     is(t, j, "*")) {
            ++j;
          } else {
            gave_up = true;
            break;
          }
        }
      } else {
        gave_up = true;
      }
    }
    if (gave_up || !is(t, j, "{")) continue;
    LambdaInfo lam;
    lam.intro = i;
    lam.intro_close = close;
    lam.body_open = j;
    lam.body_close = match(t, j, "{", "}");
    parse_captures(t, i + 1, close - 1, &lam.captures);
    out.push_back(std::move(lam));
  }
  return out;
}

/// Innermost lambda whose intro lies inside [b, e), or -1.
int lambda_in_range(const std::vector<LambdaInfo>& lambdas, std::size_t b,
                    std::size_t e) {
  for (std::size_t k = 0; k < lambdas.size(); ++k)
    if (lambdas[k].intro >= b && lambdas[k].intro < e)
      return static_cast<int>(k);
  return -1;
}

/// True when token index i sits inside any lambda body from `lambdas`.
bool inside_lambda_body(const std::vector<LambdaInfo>& lambdas,
                        std::size_t i) {
  for (const auto& lam : lambdas)
    if (i > lam.body_open && i + 1 < lam.body_close) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Class discovery: name, body range, fields at body depth 1.
// ---------------------------------------------------------------------------

std::vector<ClassRange> find_classes(const std::vector<Token>& t) {
  std::vector<ClassRange> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is(t, i, "class") && !is(t, i, "struct")) continue;
    if (!is_ident(t, i + 1) || is_keyword(t[i + 1].text)) continue;
    std::size_t j = i + 2;
    while (j < t.size() && !is(t, j, "{") && !is(t, j, ";") &&
           !is(t, j, ")") && !is(t, j, ",") && !is(t, j, "=") &&
           !is(t, j, ">"))
      ++j;
    if (j >= t.size() || !is(t, j, "{")) continue;
    ClassRange c;
    c.name = t[i + 1].text;
    c.open = j;
    c.close = match(t, j, "{", "}");
    out.push_back(std::move(c));
  }
  return out;
}

void collect_fields(const std::vector<Token>& t, const ClassRange& c,
                    std::vector<std::string>* fields) {
  int depth = 0;
  for (std::size_t i = c.open; i < c.close && i < t.size(); ++i) {
    if (is(t, i, "{")) {
      ++depth;
      continue;
    }
    if (is(t, i, "}")) {
      --depth;
      continue;
    }
    if (depth != 1) continue;
    if (!is_ident(t, i) || t[i].text.size() < 2) continue;
    if (t[i].text.back() != '_') continue;
    if (is(t, i + 1, ";") || is(t, i + 1, "=") || is(t, i + 1, "{"))
      fields->push_back(t[i].text);
  }
}

// ---------------------------------------------------------------------------
// Declaration parsing.
// ---------------------------------------------------------------------------

/// Parses `cv type-chain ref/ptr name` starting at `i`. On success fills the
/// type/name fields of `d` and sets `*after_name` to the token just past the
/// name. The caller decides what the terminator means (initializer, range-for
/// colon, parameter comma, ...).
bool parse_type_and_name(const std::vector<Token>& t, std::size_t i,
                         std::size_t end, Decl* d, std::size_t* after_name) {
  std::size_t j = i;
  while (j < end &&
         (is(t, j, "const") || is(t, j, "static") || is(t, j, "constexpr") ||
          is(t, j, "thread_local") || is(t, j, "inline") ||
          is(t, j, "mutable") || is(t, j, "typename") || is(t, j, "struct")))
    ++j;
  if (j >= end || !is_ident(t, j)) return false;
  if (is_keyword(t[j].text) && !is_primitive_type(t[j].text)) return false;
  // Qualified-id type chain with one template argument list per component.
  while (j < end && is_ident(t, j)) {
    if (is_keyword(t[j].text) && !is_primitive_type(t[j].text)) return false;
    if (t[j].text == "auto") d->is_auto = true;
    d->type.push_back(t[j].text);
    ++j;
    if (is(t, j, "<")) {
      std::size_t k = skip_angles(t, j);
      if (k >= end + 2 && k > t.size()) return false;
      for (std::size_t a = j + 1; a + 1 < k; ++a)
        if (is_ident(t, a)) d->template_args.push_back(t[a].text);
      j = k;
    }
    if (is(t, j, "::")) {
      ++j;
      continue;
    }
    break;
  }
  while (j < end && is(t, j, "const")) ++j;
  while (j < end &&
         (is(t, j, "&") || is(t, j, "&&") || is(t, j, "*"))) {
    if (t[j].text == "*")
      d->is_ptr = true;
    else
      d->is_ref = true;
    ++j;
  }
  while (j < end && is(t, j, "const")) ++j;
  if (j >= end || !is_ident(t, j) || is_keyword(t[j].text)) return false;
  d->name = t[j].text;
  d->name_tok = j;
  *after_name = j + 1;
  return true;
}

/// Scans past a balanced initializer to the top-level `;` (or the enclosing
/// `)` for range-for inits). Returns the index of the terminator.
std::size_t scan_to_statement_end(const std::vector<Token>& t, std::size_t i,
                                  std::size_t end) {
  int depth = 0;
  for (std::size_t j = i; j < end && j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "(" || s == "{" || s == "[") ++depth;
    if (s == ")" || s == "}" || s == "]") {
      if (depth == 0) return j;
      --depth;
    }
    if (s == ";" && depth == 0) return j;
  }
  return end;
}

void collect_params(const std::vector<Token>& t, FunctionInfo* fn) {
  static const std::set<std::string> callable_markers = {
      "function", "Function", "Fn", "F", "Func", "Callable", "Task",
      "Job", "Handler", "Sink", "Invocable"};
  std::size_t i = fn->params_open + 1;
  std::size_t end = fn->params_close > 0 ? fn->params_close - 1 : i;
  while (i < end) {
    std::size_t stop = i;
    int depth = 0;
    while (stop < end) {
      const std::string& s = t[stop].text;
      if (s == "(" || s == "{" || s == "[") ++depth;
      if (s == ")" || s == "}" || s == "]") --depth;
      if (s == "<") stop = skip_angles(t, stop) - 1;
      if (s == "," && depth == 0) break;
      ++stop;
    }
    Decl d;
    std::size_t after = 0;
    if (parse_type_and_name(t, i, stop, &d, &after)) {
      bool callable = false;
      for (const auto& s : d.type)
        if (callable_markers.count(s) != 0) callable = true;
      for (const auto& s : d.template_args)
        if (callable_markers.count(s) != 0) callable = true;
      if (callable) fn->callable_params.push_back(d.name);
      fn->params.push_back(std::move(d));
    }
    i = stop + 1;
  }
}

void collect_locals(const std::vector<Token>& t, FunctionInfo* fn,
                    const std::vector<LambdaInfo>& lambdas) {
  if (fn->body_close <= fn->body_open + 1) return;
  std::size_t b = fn->body_open + 1, e = fn->body_close - 1;
  for (std::size_t i = b; i < e; ++i) {
    bool stmt_start = (i == b);
    bool in_for_head = false;
    if (!stmt_start) {
      const std::string& prev = t[i - 1].text;
      if (prev == ";" || prev == "{" || prev == "}") stmt_start = true;
      if (prev == "(" && i >= 2 && is(t, i - 2, "for")) {
        stmt_start = true;
        in_for_head = true;
      }
    }
    if (!stmt_start) continue;
    Decl d;
    std::size_t after = 0;
    if (!parse_type_and_name(t, i, e, &d, &after)) continue;
    const std::string& term = t[after].text;
    if (term == "=" || term == "{" || term == "(") {
      d.init_begin = after + 1;
      d.init_end = scan_to_statement_end(t, after + 1, e);
    } else if (term == ":" && in_for_head) {
      d.init_begin = after + 1;
      d.init_end = scan_to_statement_end(t, after + 1, e);
    } else if (term != ";" && term != ",") {
      continue;
    }
    if (d.init_begin < d.init_end)
      d.lambda_index = lambda_in_range(lambdas, d.init_begin, d.init_end);
    fn->locals.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// Function discovery.
// ---------------------------------------------------------------------------

void build_scopes(const std::vector<Token>& t, FunctionInfo* fn) {
  ScopeNode root;
  root.open = fn->body_open;
  root.close = fn->body_close;
  root.head = fn->body_open;
  fn->scopes.push_back(root);
  std::vector<int> stack = {0};
  for (std::size_t i = fn->body_open + 1; i + 1 < fn->body_close; ++i) {
    if (is(t, i, "{")) {
      ScopeNode node;
      node.open = i;
      node.close = match(t, i, "{", "}");
      node.head = i;
      node.parent = stack.back();
      if (i > 0 && is(t, i - 1, "do")) node.is_loop = true;
      if (i > 0 && is(t, i - 1, ")")) {
        // Backward-match the paren to see if a loop keyword introduces it.
        int depth = 1;
        std::size_t j = i - 1;
        while (j > fn->body_open && depth > 0) {
          --j;
          if (is(t, j, ")")) ++depth;
          if (is(t, j, "(")) --depth;
        }
        if (depth == 0 && j > 0 &&
            (is(t, j - 1, "for") || is(t, j - 1, "while"))) {
          node.is_loop = true;
          node.head = j;
        }
      }
      fn->scopes.push_back(node);
      stack.push_back(static_cast<int>(fn->scopes.size()) - 1);
    } else if (is(t, i, "}")) {
      if (stack.size() > 1) stack.pop_back();
    }
  }
}

/// Innermost loop scope containing token index i, or -1.
int enclosing_loop(const FunctionInfo& fn, std::size_t i) {
  int best = -1;
  std::size_t best_open = 0;
  for (std::size_t s = 0; s < fn.scopes.size(); ++s) {
    const ScopeNode& n = fn.scopes[s];
    if (n.is_loop && n.open < i && i < n.close && n.open >= best_open) {
      best = static_cast<int>(s);
      best_open = n.open;
    }
  }
  return best;
}

std::vector<FunctionInfo> find_functions(const std::vector<Token>& t,
                                         const std::vector<LambdaInfo>& lams,
                                         const std::vector<ClassRange>& cls) {
  std::vector<FunctionInfo> out;
  for (std::size_t p = 1; p < t.size(); ++p) {
    if (!is(t, p, "(")) continue;
    if (!is_ident(t, p - 1) || is_keyword(t[p - 1].text)) continue;
    if (p >= 2) {
      const std::string& before = t[p - 2].text;
      if (before == "," || before == ":" || before == "." ||
          before == "->" || before == "~")
        continue;
    }
    std::size_t close = match(t, p, "(", ")");
    if (close >= t.size()) continue;
    // Forward scan over qualifiers / trailing return / ctor-init list. A
    // terminator other than '{' means this paren was a call or declaration.
    std::size_t j = close;
    bool ok = true, found_body = false;
    while (j < t.size()) {
      const std::string& s = t[j].text;
      if (s == "{") {
        found_body = true;
        break;
      }
      if (s == "const" || s == "noexcept" || s == "override" ||
          s == "final" || s == "mutable" || s == "try" || s == "&" ||
          s == "&&") {
        ++j;
        if (is(t, j, "(")) j = match(t, j, "(", ")");
        continue;
      }
      if (s == "->") {
        ++j;
        while (j < t.size() && !is(t, j, "{") && !is(t, j, ";")) {
          if (is(t, j, "<")) {
            j = skip_angles(t, j);
          } else if (is_ident(t, j) || is(t, j, "::") || is(t, j, "&") ||
                     is(t, j, "*")) {
            ++j;
          } else {
            break;
          }
        }
        continue;
      }
      if (s == ":") {  // constructor member-initializer list
        ++j;
        bool init_ok = true;
        while (j < t.size() && init_ok) {
          if (!is_ident(t, j)) {
            init_ok = false;
            break;
          }
          ++j;
          if (is(t, j, "<")) j = skip_angles(t, j);
          if (is(t, j, "("))
            j = match(t, j, "(", ")");
          else if (is(t, j, "{"))
            j = match(t, j, "{", "}");
          else {
            init_ok = false;
            break;
          }
          if (is(t, j, ",")) {
            ++j;
            continue;
          }
          break;
        }
        if (!init_ok) ok = false;
        if (!ok) break;
        continue;
      }
      ok = false;
      break;
    }
    if (!ok || !found_body) continue;
    FunctionInfo fn;
    fn.name = t[p - 1].text;
    fn.name_tok = p - 1;
    fn.params_open = p;
    fn.params_close = close;
    fn.body_open = j;
    fn.body_close = match(t, j, "{", "}");
    if (p >= 3 && is(t, p - 2, "::") && is_ident(t, p - 3))
      fn.qualifier = t[p - 3].text;
    if (fn.qualifier.empty()) {
      for (const auto& c : cls)
        if (fn.name_tok > c.open && fn.name_tok < c.close)
          fn.qualifier = c.name;
    }
    collect_params(t, &fn);
    collect_locals(t, &fn, lams);
    build_scopes(t, &fn);
    out.push_back(std::move(fn));
  }
  return out;
}

// ---------------------------------------------------------------------------
// File model + cross-file spawn summary.
// ---------------------------------------------------------------------------

FileModel build_model(const analysis::SourceFile& file) {
  FileModel fm;
  fm.scan = analysis::tokenize(file);
  fm.lambdas = find_lambdas(fm.scan.tokens);
  fm.classes = find_classes(fm.scan.tokens);
  for (const auto& c : fm.classes)
    collect_fields(fm.scan.tokens, c, &fm.class_fields[c.name]);
  fm.functions = find_functions(fm.scan.tokens, fm.lambdas, fm.classes);
  return fm;
}

bool is_container_push(const std::vector<Token>& t, std::size_t i) {
  static const std::set<std::string> pushes = {"push_back", "emplace_back",
                                               "push", "emplace", "insert"};
  return pushes.count(t[i].text) != 0 && i > 0 &&
         (t[i - 1].text == "." || t[i - 1].text == "->");
}

/// A function joins the spawning set when it forwards one of its callable
/// parameters into a spawning call (or queues it in a container) and no
/// blocking wait follows the forwarding site -- so ThreadPool::parallel_for,
/// which drains its chunks before returning, stays out, while Daemon::post
/// and Daemon::handle join.
void compute_spawning(Project* proj) {
  proj->spawning = {"submit", "async"};
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& fm : proj->files) {
      const auto& t = fm.scan.tokens;
      for (auto& fn : fm.functions) {
        if (fn.callable_params.empty()) continue;
        if (proj->spawning.count(fn.name) != 0) continue;
        for (std::size_t i = fn.body_open + 1; i + 1 < fn.body_close; ++i) {
          if (!is_ident(t, i) || !is(t, i + 1, "(")) continue;
          if (i == fn.name_tok) continue;
          bool spawner = proj->spawning.count(t[i].text) != 0;
          if (!spawner && !is_container_push(t, i)) continue;
          std::size_t close = match(t, i + 1, "(", ")");
          bool forwards = false;
          for (std::size_t a = i + 2; a + 1 < close; ++a) {
            if (!is_ident(t, a)) continue;
            for (const auto& cp : fn.callable_params)
              if (t[a].text == cp) forwards = true;
          }
          if (!forwards) continue;
          bool waits = false;
          for (std::size_t w = close; w + 1 < fn.body_close; ++w)
            if (is_ident(t, w) && is(t, w + 1, "(") && is_wait_call(t, w))
              waits = true;
          if (!waits) {
            proj->spawning.insert(fn.name);
            changed = true;
          }
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule engine.
// ---------------------------------------------------------------------------

struct SpawnSite {
  std::size_t callee = 0;         // identifier token of the spawning call
  std::size_t open = 0, close = 0;  // argument parens
  std::vector<int> task_lambdas;  // indices into FileModel::lambdas
};

struct Engine {
  const AnalyzeOptions& options;
  const Project& proj;
  const FileModel& fm;
  AnalyzeResult& result;

  bool rule_enabled(const char* rule) const {
    if (options.rules.empty()) return true;
    for (const auto& r : options.rules)
      if (r == rule) return true;
    return false;
  }

  void emit(const char* rule, const Token& at, std::string message,
            std::vector<std::string> chain = {}) {
    analysis::Finding f;
    f.rule = rule;
    f.path = fm.scan.file->path;
    f.line = at.line;
    f.col = at.col;
    f.message = std::move(message);
    f.chain = std::move(chain);
    analysis::finish_finding(f, fm.scan, "mbrc-analyze",
                             result.bad_suppressions);
    result.findings.push_back(std::move(f));
  }

  /// Innermost declaration of `name` visible before token index `before`.
  const Decl* resolve(const FunctionInfo& fn, const std::string& name,
                      std::size_t before) const {
    const Decl* best = nullptr;
    for (const auto& d : fn.locals)
      if (d.name == name && d.name_tok < before) best = &d;
    if (best) return best;
    for (const auto& d : fn.params)
      if (d.name == name) return &d;
    return nullptr;
  }

  /// Deferred-execution call sites in `fn` and the task lambdas they carry
  /// (literal lambda arguments plus identifiers resolving to
  /// lambda-initialized locals).
  std::vector<SpawnSite> spawn_sites(const FunctionInfo& fn) const {
    std::vector<SpawnSite> out;
    const auto& t = fm.scan.tokens;
    std::set<std::size_t> def_names;
    for (const auto& f : fm.functions) def_names.insert(f.name_tok);
    for (std::size_t i = fn.body_open + 1; i + 1 < fn.body_close; ++i) {
      if (!is_ident(t, i) || !is(t, i + 1, "(")) continue;
      if (proj.spawning.count(t[i].text) == 0) continue;
      if (def_names.count(i) != 0) continue;
      SpawnSite site;
      site.callee = i;
      site.open = i + 1;
      site.close = match(t, i + 1, "(", ")");
      for (std::size_t k = 0; k < fm.lambdas.size(); ++k)
        if (fm.lambdas[k].intro > site.open &&
            fm.lambdas[k].intro < site.close)
          site.task_lambdas.push_back(static_cast<int>(k));
      for (std::size_t a = site.open + 1; a + 1 < site.close; ++a) {
        if (!is_ident(t, a)) continue;
        bool in_lam = false;
        for (int k : site.task_lambdas) {
          const auto& lam = fm.lambdas[static_cast<std::size_t>(k)];
          if (a >= lam.intro && a < lam.body_close) in_lam = true;
        }
        if (in_lam) continue;
        const Decl* d = resolve(fn, t[a].text, a);
        if (d && d->lambda_index >= 0)
          site.task_lambdas.push_back(d->lambda_index);
      }
      out.push_back(std::move(site));
    }
    return out;
  }

  /// Throwing-capable calls in the token range [b, e), skipping nested
  /// lambda bodies (they run later, not on this path).
  void collect_throwing(std::size_t b, std::size_t e,
                        std::vector<std::string>* out) const {
    const auto& t = fm.scan.tokens;
    for (std::size_t i = b; i < e && i + 1 < t.size(); ++i) {
      if (inside_lambda_body(fm.lambdas, i)) continue;
      if (!is_ident(t, i) || !is(t, i + 1, "(")) continue;
      if (is_nonthrowing_call(t[i].text) || is_wait_call(t, i)) continue;
      out->push_back("'" + t[i].text + "(...)' at " + loc_of(t[i]) +
                     " can throw before the wait runs");
    }
  }

  // ---- A2: task-capture lifetime ----------------------------------------

  void check_task_captures(const FunctionInfo& fn) {
    if (!rule_enabled("A2")) return;
    const auto& t = fm.scan.tokens;
    for (const SpawnSite& site : spawn_sites(fn)) {
      for (int li : site.task_lambdas) {
        const LambdaInfo& lam = fm.lambdas[static_cast<std::size_t>(li)];
        std::vector<std::string> hazards;
        for (const Capture& c : lam.captures) {
          if (c.is_this) continue;
          if (c.is_default && c.by_ref) {
            hazards.push_back("captures the frame by reference ([&]) at " +
                              loc_of(t[c.tok]));
          } else if (c.by_ref && !c.name.empty()) {
            if (resolve(fn, c.name, lam.intro) != nullptr)
              hazards.push_back("captures local '" + c.name +
                                "' by reference at " + loc_of(t[c.tok]));
          } else if (!c.name.empty()) {
            const Decl* d = resolve(fn, c.name, lam.intro);
            if (d && d->lambda_index >= 0 &&
                fm.lambdas[static_cast<std::size_t>(d->lambda_index)]
                    .has_ref_capture())
              hazards.push_back(
                  "captures lambda '" + c.name +
                  "' by value, which itself captures the frame by "
                  "reference (declared at " +
                  loc_of(t[d->name_tok]) + ")");
          }
        }
        if (hazards.empty()) continue;
        // A recognized RAII wait guard declared before the submission
        // drains on every exit path, exceptional ones included.
        bool guarded = false;
        for (const auto& d : fn.locals) {
          if (d.name_tok >= site.callee) continue;
          for (const auto& g : options.wait_guard_types)
            if (std::find(d.type.begin(), d.type.end(), g) != d.type.end())
              guarded = true;
        }
        if (guarded) continue;
        std::size_t wait_at = 0;
        for (std::size_t w = site.close; w + 1 < fn.body_close; ++w) {
          if (inside_lambda_body(fm.lambdas, w)) continue;
          if (is_ident(t, w) && is(t, w + 1, "(") && is_wait_call(t, w)) {
            wait_at = w;
            break;
          }
        }
        if (wait_at == 0) {
          emit("A2", t[site.callee],
               "deferred task submitted via '" + t[site.callee].text +
                   "' captures the enclosing frame but no join/wait "
                   "dominates scope exit",
               hazards);
          continue;
        }
        std::vector<std::string> throwing;
        collect_throwing(site.close, wait_at, &throwing);
        int loop = enclosing_loop(fn, site.callee);
        if (loop >= 0 &&
            wait_at >= fn.scopes[static_cast<std::size_t>(loop)].close)
          collect_throwing(fn.scopes[static_cast<std::size_t>(loop)].head,
                           site.callee, &throwing);
        if (throwing.empty()) continue;
        std::vector<std::string> chain = hazards;
        chain.push_back("the wait at " + loc_of(t[wait_at]) +
                        " does not dominate scope exit:");
        for (std::size_t k = 0; k < throwing.size() && k < 3; ++k)
          chain.push_back(throwing[k]);
        emit("A2", t[site.callee],
             "deferred task captures the enclosing frame and the wait at " +
                 loc_of(t[wait_at]) +
                 " can be skipped by exceptional unwind (declare a " 
                 "FutureDrain/DrainGuard before the submission)",
             chain);
      }
    }
  }

  // ---- A3: strand discipline ---------------------------------------------

  void check_strand_discipline(const FunctionInfo& fn) {
    if (!rule_enabled("A3")) return;
    if (!path_matches(fm.scan.file->path, options.strand_paths)) return;
    for (const auto& cls : options.strand_classes)
      if (fn.qualifier == cls) return;
    for (const auto& ep : options.strand_entry_points)
      if (fn.name == ep) return;
    const auto& t = fm.scan.tokens;
    std::vector<std::pair<std::size_t, std::size_t>> posted;
    for (std::size_t i = fn.body_open + 1; i + 1 < fn.body_close; ++i) {
      if (is_ident(t, i) && t[i].text == "post" && is(t, i + 1, "(")) {
        std::size_t close = match(t, i + 1, "(", ")");
        for (const auto& lam : fm.lambdas)
          if (lam.intro > i && lam.intro < close)
            posted.push_back({lam.intro, lam.body_close});
      }
    }
    for (std::size_t i = fn.body_open + 1; i + 2 < fn.body_close; ++i) {
      if (!is_ident(t, i)) continue;
      if (!is(t, i + 1, ".") && !is(t, i + 1, "->")) continue;
      if (!is_ident(t, i + 2)) continue;
      const std::string& field = t[i + 2].text;
      bool in_posted = false;
      for (const auto& range : posted)
        if (i > range.first && i < range.second) in_posted = true;
      if (in_posted) continue;
      const Decl* d = resolve(fn, t[i].text, i);
      if (d == nullptr) continue;
      for (const auto& cls : options.strand_classes) {
        auto it = proj.class_fields.find(cls);
        if (it == proj.class_fields.end()) continue;
        if (std::find(it->second.begin(), it->second.end(), field) ==
            it->second.end())
          continue;
        if (d->type_contains(cls))
          emit("A3", t[i + 2],
               "field '" + field + "' of strand-confined " + cls +
                   " touched outside its strand; only " + cls +
                   ":: members, strand entry points and lambdas posted to "
                   "the strand may touch it");
      }
    }
  }

  // ---- A4: journal bypass ------------------------------------------------

  void check_journal_bypass(const FunctionInfo& fn) {
    if (!rule_enabled("A4")) return;
    if (path_matches(fm.scan.file->path, options.journal_exempt_paths))
      return;
    const auto& t = fm.scan.tokens;
    bool has_notify = false;
    for (std::size_t i = fn.body_open + 1; i + 1 < fn.body_close; ++i)
      if (is_ident(t, i) && t[i].text == "notify_moved" && is(t, i + 1, "("))
        has_notify = true;
    auto ref_via = [&](const Decl& d, const char* tyname,
                      const char* accessor) {
      if (!d.is_ref && !d.is_ptr) return false;
      if (d.type_contains(tyname)) return true;
      if (d.is_auto && d.init_begin < d.init_end) {
        for (std::size_t i = d.init_begin; i + 2 < d.init_end; ++i)
          if ((is(t, i, ".") || is(t, i, "->")) && is_ident(t, i + 1) &&
              t[i + 1].text.rfind(accessor, 0) == 0 && is(t, i + 2, "("))
            return true;
      }
      return false;
    };
    std::set<std::string> cell_refs, pin_refs;
    for (const auto& d : fn.locals) {
      if (ref_via(d, "Cell", "cell")) cell_refs.insert(d.name);
      if (ref_via(d, "Pin", "pin")) pin_refs.insert(d.name);
    }
    for (const auto& d : fn.params) {
      if ((d.is_ref || d.is_ptr) && d.type_contains("Cell"))
        cell_refs.insert(d.name);
      if ((d.is_ref || d.is_ptr) && d.type_contains("Pin"))
        pin_refs.insert(d.name);
    }
    for (std::size_t i = fn.body_open + 1; i + 2 < fn.body_close; ++i) {
      if (!is_ident(t, i)) continue;
      if (!is(t, i + 1, ".") && !is(t, i + 1, "->")) continue;
      if (!is_ident(t, i + 2)) continue;
      const std::string& m = t[i + 2].text;
      if (m == "cell" && is(t, i + 3, "(")) {
        const Decl* d = resolve(fn, t[i].text, i);
        bool is_design = (d != nullptr && d->type_contains("Design")) ||
                         t[i].text.find("design") != std::string::npos;
        if (!is_design) continue;
        std::size_t close = match(t, i + 3, "(", ")");
        if (is(t, close, ".") && is(t, close + 1, "position")) {
          std::size_t a = close + 2;
          if (is(t, a, ".") && is_ident(t, a + 1)) a += 2;
          if (is(t, a, "=") && !has_notify)
            emit("A4", t[i],
                 "writes cell position through '" + t[i].text +
                     ".cell(...)' but '" + fn.name +
                     "' never calls notify_moved; the incremental timing "
                     "engine goes stale against the run_sta oracle");
        }
        continue;
      }
      if (m == "position" && cell_refs.count(t[i].text) != 0) {
        std::size_t a = i + 3;
        if (is(t, a, ".") && is_ident(t, a + 1)) a += 2;
        if (is(t, a, "=") && !has_notify)
          emit("A4", t[i],
               "writes '" + t[i].text + ".position' but '" + fn.name +
                   "' never calls notify_moved; the incremental timing "
                   "engine goes stale against the run_sta oracle");
        continue;
      }
      if (m == "net" && pin_refs.count(t[i].text) != 0 &&
          is(t, i + 3, "=")) {
        emit("A4", t[i],
             "rewires pin '" + t[i].text +
                 ".net' directly; route the rewire through the journaled "
                 "Design API");
        continue;
      }
      if ((m == "reg" || m == "variant") && cell_refs.count(t[i].text) != 0 &&
          is(t, i + 3, "="))
        emit("A4", t[i],
             "swaps register variant via '" + t[i].text + "." + m +
                 "' without a journal append");
    }
  }
};

}  // namespace

AnalyzeResult run_analyze(const std::vector<SourceFile>& files,
                          const AnalyzeOptions& options,
                          const std::vector<BaselineEntry>& baseline) {
  AnalyzeResult result;
  Project proj;
  proj.files.reserve(files.size());
  for (const auto& f : files) proj.files.push_back(build_model(f));
  for (const auto& fm : proj.files)
    for (const auto& kv : fm.class_fields) {
      auto& dst = proj.class_fields[kv.first];
      dst.insert(dst.end(), kv.second.begin(), kv.second.end());
    }
  compute_spawning(&proj);
  for (const auto& fm : proj.files) {
    Engine eng{options, proj, fm, result};
    for (const auto& fn : fm.functions) {
      eng.check_task_captures(fn);
      eng.check_strand_discipline(fn);
      eng.check_journal_bypass(fn);
    }
  }
  analysis::apply_baseline(result, baseline);
  return result;
}

}  // namespace mbrc::analyze
