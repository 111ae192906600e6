// The xcp-lint project-invariant static analysis pass.
//
// Every correctness claim this repo makes — byte-identical sweeps at any
// worker count, committees that survive crash-restart, amnesia-safe
// journaling, allocation-free steady state — is enforced dynamically by
// differential tests, counting allocators and sanitizers. Those catch a
// violation only when a test happens to sample it. This pass encodes the
// same invariants as compile-time-checkable lexical rules so the obvious
// regressions (a stray wall-clock read, an unordered-map range-for feeding
// a report, a blocking read in the transport poll loop, a non-fixed-width
// field in an encoder) are rejected at lint time, deterministically, on
// every commit. Rule catalog and rationale: docs/LINT.md.
//
// Layering: lexer.hpp tokenizes, this header owns findings/suppressions/
// baseline/engine, rules.cpp registers the rules, tools/xcp_lint.cpp is
// the CLI (file discovery via compile_commands.json or a tree walk).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace xcp::lint {

// ------------------------------------------------------------- findings

struct Finding {
  std::string rule;     // rule id, e.g. "determinism-wall-clock"
  std::string path;     // repo-relative path with forward slashes
  int line = 0;         // 1-based
  std::string message;  // what is wrong and why it matters here
  std::string excerpt;  // trimmed source line (baseline matching key)
};

/// Stable ordering for reports and baselines: path, then line, then rule.
bool finding_less(const Finding& a, const Finding& b);

// --------------------------------------------------------- suppressions
//
// In-source suppressions are explicit and carry a reason:
//
//   blocking_call();  // xcp-lint: allow(loop-blocking) child is dead here
//
// A same-line comment suppresses that rule on its own line. An own-line
// comment (alone or anywhere inside a contiguous block of own-line
// comments, so the grant can carry a multi-line explanation) suppresses
// the first code line after the block. A file-wide grant:
//
//   // xcp-lint: allow-file(determinism-wall-clock) supervision timing
//
// suppresses the rule everywhere in the file (for files whose whole job
// is the suppressed domain, e.g. wall-clock supervision layers). A
// directive with no reason, an unknown rule id, or unparseable syntax is
// itself a finding (rule "lint-directive"): a suppression nobody can
// audit is worse than none.

struct Suppression {
  std::string rule;
  int line = 0;         // line the directive appears on
  bool file_wide = false;
  bool own_line = false;  // comment stands alone -> applies past the block
  /// For own-line grants: the code line the grant covers (the first line
  /// after the contiguous own-line comment block the directive sits in).
  int grants_line = 0;
};

// ------------------------------------------------------------- sources

/// One lexed file plus everything rules need to scan it.
struct SourceFile {
  std::string path;     // repo-relative, forward slashes
  std::string text;     // owning buffer; tokens view into it
  LexedSource lexed;
  std::vector<Suppression> suppressions;
  /// Malformed/unauditable directives found while parsing comments;
  /// surfaced by run_files as rule "lint-directive".
  std::vector<Finding> directive_findings;

  const std::vector<Token>& tokens() const { return lexed.tokens; }
  /// Trimmed text of a 1-based source line (excerpt for findings).
  std::string line_text(int line) const;
};

/// Lexes `text` as `path` and extracts suppression directives.
SourceFile make_source(std::string path, std::string text);

// --------------------------------------------------------------- rules

/// A hot function registered with the hotpath-alloc rule: `file_suffix`
/// selects the file (match on path suffix), `function` the definition's
/// name within it.
struct HotFunction {
  std::string_view file_suffix;
  std::string_view function;
};

/// Project-shape configuration for the rules. The defaults encode this
/// repo's layout; tests substitute fixture paths.
struct Config {
  /// Result-producing code: determinism rules apply here.
  std::vector<std::string> determinism_scopes{
      "src/sim/", "src/exp/", "src/props/", "src/consensus/", "src/net/"};
  /// Order-sensitive output code outside the core five: the unordered-
  /// iteration rule also covers these (iteration order leaks into any
  /// rendered report, not just sweep accumulators).
  std::vector<std::string> iteration_extra_scopes{
      "src/ledger/", "src/crypto/", "src/chain/", "src/anta/",
      "src/deals/", "src/proto/", "src/baselines/"};
  /// Files whose poll loops must never block.
  std::vector<std::string> loop_scopes{"src/net/socket_transport.cpp",
                                       "src/net/node_runtime.cpp"};
  /// Encode/decode code: wire-safety rules apply here.
  std::vector<std::string> wire_scopes{
      "src/support/bytes.hpp", "src/support/bytes.cpp", "src/net/wire.hpp",
      "src/net/wire.cpp",      "src/net/wal.hpp",       "src/net/wal.cpp"};
  /// Kind/record-kind switches outside the codec files proper.
  std::vector<std::string> kind_switch_extra_scopes{"src/consensus/notary.cpp"};
  /// Steady-state hot functions: no allocation, period.
  std::vector<HotFunction> hot_functions{
      {"src/sim/event_queue.hpp", "push"},
      {"src/sim/event_queue.cpp", "begin_push"},
      {"src/sim/event_queue.cpp", "pop"},
      {"src/sim/event_queue.cpp", "cancel"},
      {"src/sim/event_queue.cpp", "remove_at"},
      {"src/props/trace.hpp", "record"},
      {"src/support/hash.cpp", "write_u64"},
      {"src/support/hash.cpp", "write_u32"},
      {"src/support/hash.cpp", "write_str"},
      {"src/crypto/certificate.cpp", "verify_quorum_cert"},
      {"src/consensus/notary.cpp", "handle_vote"},
      {"src/net/network.cpp", "deliver_batch"},
      {"src/anta/interpreter.cpp", "try_consume"},
      {"src/anta/interpreter.cpp", "on_timer"},
  };
};

/// One registered rule. `applies` decides per-file scope from the
/// repo-relative path; `scan` appends findings. `all_files` is the whole
/// scan set — the unordered-iteration rule resolves member declarations
/// from a .cpp's sibling header through it.
struct Rule {
  std::string_view id;
  std::string_view summary;
  bool (*applies)(const Config&, std::string_view path);
  void (*scan)(const Config&, const SourceFile& file,
               const std::vector<SourceFile>& all_files,
               std::vector<Finding>& out);
};

/// The rule registry, in catalog order (docs/LINT.md mirrors it).
const std::vector<Rule>& rules();

/// True when some registered rule (or "lint-directive") has this id.
bool known_rule(std::string_view id);

// --------------------------------------------------------------- engine

struct RunOptions {
  /// Restrict to these rule ids (empty = all).
  std::vector<std::string> only_rules;
};

struct RunResult {
  std::vector<Finding> findings;    // survived suppressions, sorted
  std::vector<Finding> suppressed;  // matched an in-source allow
  int files_scanned = 0;
};

/// Runs every applicable rule over every file, applies in-source
/// suppressions, then runs the cross-file rules (serialize/parse pairing
/// needs the whole set). `files` must already be lexed via make_source.
RunResult run_files(const Config& config, const std::vector<SourceFile>& files,
                    const RunOptions& options = {});

/// Cross-file pass run by run_files: every serialize_X declared in the
/// wire scope must have a matching parse_X. Exposed for tests.
void scan_serialize_parse_pairs(const Config& config,
                                const std::vector<SourceFile>& files,
                                std::vector<Finding>& out);

// ------------------------------------------------------------- baseline
//
// The baseline is the escape hatch for findings that are understood but
// not yet fixed: a checked-in file of `rule|path|excerpt` lines. A
// finding is baselined when its (rule, path, trimmed line text) matches
// an unconsumed baseline entry — line numbers are deliberately absent so
// unrelated edits above a finding don't invalidate the baseline, while
// any edit to the flagged line itself resurfaces it.

struct Baseline {
  // Multiset semantics: the same (rule, path, excerpt) may appear N times
  // and absolves at most N findings.
  std::map<std::string, int> entries;

  static std::string key(const Finding& f);
  /// Serializes `findings` in stable order, with a header comment.
  static std::string render(const std::vector<Finding>& findings);
  /// Parses baseline text; returns std::nullopt and sets `error` (with a
  /// 1-based line number) on malformed input.
  static std::optional<Baseline> parse(std::string_view text,
                                       std::string& error);
};

/// Splits `result.findings` into non-baselined (kept) and baselined
/// (moved to `baselined`), consuming baseline entries.
void apply_baseline(const Baseline& baseline, RunResult& result,
                    std::vector<Finding>& baselined);

// ----------------------------------------------------------- exit codes

/// Exit-code taxonomy of tools/xcp_lint, in the style of net::node_exit:
/// scripts and CI branch on these.
namespace lint_exit {
inline constexpr int kClean = 0;     // no non-baselined findings
inline constexpr int kFindings = 1;  // at least one finding survived
inline constexpr int kUsage = 2;     // bad flags / unknown rule id
inline constexpr int kIo = 3;        // unreadable file / compile db / root
inline constexpr int kBaseline = 4;  // baseline file malformed
}  // namespace lint_exit

}  // namespace xcp::lint
