// Shared source-model layer for the project's static-analysis tools
// (tools/mbrc-lint, tools/mbrc-analyze).
//
// Both tools scan C++ without libclang: a tokenizer with a per-line comment
// side table (suppression comments live there), `file:line:col` findings, an
// inline-suppression grammar `// <tool>: allow(RULE, reason)` with a
// mandatory reason, and an FNV-1a baseline keyed on (rule, path,
// whitespace-normalized line text) so grandfathered entries survive edits
// elsewhere in the file but go stale when the flagged line itself changes.
// Stale entries fail the run, so baselines only ever shrink.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mbrc::analysis {

struct SourceFile {
  std::string path;
  std::string content;
};

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line;  // 1-based
  int col;   // 1-based byte column of the token's first character
};

struct FileScan {
  const SourceFile* file = nullptr;
  std::vector<Token> tokens;
  std::map<int, std::string> comments;  // line -> comment text
  std::vector<std::string> lines;       // raw text, for baseline keys
};

/// Tokenizes one file. Comments are stripped into the side table;
/// preprocessor directives are skipped wholesale so `#include
/// <unordered_map>` never reaches the rules.
FileScan tokenize(const SourceFile& file);

// Token-stream helpers shared by every rule engine.

inline bool is(const std::vector<Token>& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}
inline bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}

/// Index just past the matching closer for the opener at `open`.
/// Returns t.size() when unbalanced.
std::size_t match(const std::vector<Token>& t, std::size_t open,
                  const char* o, const char* c);

/// Skips a balanced template argument list starting at a '<' token.
/// Unfused ">" tokens close one level each. Returns index past the final '>'.
std::size_t skip_angles(const std::vector<Token>& t, std::size_t open);

// ---------------------------------------------------------------------------
// Findings, suppression, baseline.
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;       // "R1".."R6" / "A2".."A4"
  std::string path;
  int line = 0;           // 1-based
  int col = 0;            // 1-based; 0 when the emitting rule has no token
  std::string message;
  /// Escape/flow chain ("derived from ... at line:col" steps); empty for
  /// single-site findings.
  std::vector<std::string> chain;
  std::uint64_t key = 0;  // baseline key: hash(rule, path, normalized line)
  bool suppressed = false;
  std::string suppress_reason;
  bool baselined = false;
};

struct BaselineEntry {
  std::string rule;
  std::string path;
  std::uint64_t key = 0;
};

struct Report {
  /// Every finding, including suppressed and baselined ones.
  std::vector<Finding> findings;
  /// Baseline entries that matched no finding (stale: the grandfathered
  /// hazard was fixed or the line rewritten -- remove the entry).
  std::vector<BaselineEntry> stale_baseline;
  /// Suppression comments with an empty reason (treated as findings).
  std::vector<Finding> bad_suppressions;

  /// Findings that are neither suppressed nor baselined.
  std::vector<const Finding*> active() const;
  /// Nonzero-exit condition: active findings, bad suppressions or a stale
  /// baseline.
  bool clean() const;
};

/// Collapses runs of whitespace to single spaces and trims the ends, so
/// baseline keys survive reformatting that does not change the code.
std::string normalize_line(const std::string& text);

/// Baseline key of a finding: FNV-1a over rule, path and the finding line's
/// whitespace-normalized text.
std::uint64_t baseline_key(const std::string& rule, const std::string& path,
                           const std::string& line_text);

/// Parses the baseline format: one `rule<space>path<space>hex-key` per line;
/// blank lines and `#` comments ignored.
std::vector<BaselineEntry> parse_baseline(const std::string& text);

/// Serializes findings into the baseline format. `tool` names the emitting
/// tool in the header comment.
std::string format_baseline(const std::vector<Finding>& findings,
                            const std::string& tool = "mbrc-lint");

/// Looks for `<tag>: allow(RULE, reason)` in the comment table on `line` or
/// the line directly above (`tag` is "mbrc-lint" or "mbrc-analyze").
/// Returns 1 when found with a reason, -1 when found with an empty reason
/// (report as a bad suppression), 0 when absent.
int find_suppression(const std::map<int, std::string>& comments,
                     const std::string& tag, const std::string& rule,
                     int line, std::string* reason);

/// Fills in a finding's baseline key and suppression state from the scan it
/// was emitted against. A suppression with an empty reason appends a copy of
/// the finding to `bad_suppressions`.
void finish_finding(Finding& f, const FileScan& scan, const std::string& tag,
                    std::vector<Finding>& bad_suppressions);

/// Baseline matching: each entry absorbs at most one unsuppressed finding
/// with the same rule/path/key; leftovers land in `report.stale_baseline`.
void apply_baseline(Report& report,
                    const std::vector<BaselineEntry>& baseline);

}  // namespace mbrc::analysis
