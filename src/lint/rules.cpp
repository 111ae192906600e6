// The xcp-lint rule registry: the project's load-bearing invariants as
// lexical rules. Each rule is a token scan with just enough local
// structure (balanced parens/braces, qualified-id chains) to stay
// precise; docs/LINT.md carries the catalog, per-rule rationale and the
// honest list of what each rule cannot see.
#include <algorithm>
#include <string>
#include <unordered_set>

#include "lint/lint.hpp"

namespace xcp::lint {
namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

bool path_in(const std::vector<std::string>& scopes, std::string_view path) {
  for (const std::string& s : scopes) {
    if (s.empty()) continue;
    if (s.back() == '/') {
      if (path.rfind(s, 0) == 0) return true;       // directory prefix
    } else if (path == s || (path.size() > s.size() &&
                             path.compare(path.size() - s.size(), s.size(),
                                          s) == 0)) {
      return true;                                  // exact or suffix
    }
  }
  return false;
}

/// Index of the token matching the opener at `open` ("(" / "{" / "<"),
/// or tokens.size() when unbalanced.
std::size_t matching(const Tokens& toks, std::size_t open,
                     std::string_view open_text, std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) ++depth;
    if (is_punct(toks[i], close_text)) {
      if (--depth == 0) return i;
    }
  }
  return toks.size();
}

void add(std::vector<Finding>& out, const SourceFile& f, std::string_view rule,
         int line, std::string message) {
  Finding fd;
  fd.rule = std::string(rule);
  fd.path = f.path;
  fd.line = line;
  fd.message = std::move(message);
  fd.excerpt = f.line_text(line);
  out.push_back(std::move(fd));
}

// ------------------------------------------------- determinism-wall-clock
//
// Result-producing code must read time from the simulation (sim().now(),
// local_now()) or an injectable seam (NodeRuntime::set_clock), never from
// a machine clock: a wall-clock read in a result path makes two runs of
// the same seed diverge, which silently voids every byte-identity
// differential. The scan flags chrono-clock now() chains
// (std::chrono::*_clock::now(), Clock::now() aliases) and the C clock
// API; virtual-time now() calls (obj.now(), sim().now()) don't match
// because they are unqualified or object-qualified, not clock-qualified.

bool applies_determinism(const Config& c, std::string_view path) {
  return path_in(c.determinism_scopes, path);
}

bool chain_names_a_clock(const Tokens& toks, std::size_t now_index) {
  // Walk the qualified-id chain leftwards from `now`: X :: Y :: now.
  std::size_t i = now_index;
  while (i >= 2 && is_punct(toks[i - 1], "::") &&
         toks[i - 2].kind == TokKind::kIdent) {
    const std::string_view q = toks[i - 2].text;
    if (q == "chrono" || q == "Clock" || q == "WallClock" ||
        (q.size() > 6 && q.compare(q.size() - 6, 6, "_clock") == 0)) {
      return true;
    }
    i -= 2;
  }
  return false;
}

void scan_wall_clock(const Config&, const SourceFile& f,
                     const std::vector<SourceFile>&,
                     std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kCClock = {
      "gettimeofday", "clock_gettime", "localtime", "gmtime",
      "mktime",       "asctime",       "ctime",     "ftime"};
  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_punct(toks[i + 1], "(")) continue;
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "now" && chain_names_a_clock(toks, i)) {
      add(out, f, "determinism-wall-clock", t.line,
          "wall-clock read in result-producing code; use simulation time "
          "or an injectable clock seam (NodeRuntime::set_clock)");
      continue;
    }
    if (kCClock.count(t.text) != 0) {
      add(out, f, "determinism-wall-clock", t.line,
          "C wall-clock API '" + std::string(t.text) +
              "' in result-producing code");
      continue;
    }
    // std::time(...) / ::time(...) — the bare word `time` alone is too
    // common to flag (members, locals), so require the qualification.
    if (t.text == "time" && i >= 1 && is_punct(toks[i - 1], "::") &&
        (i < 2 || toks[i - 2].kind != TokKind::kIdent ||
         toks[i - 2].text == "std")) {
      add(out, f, "determinism-wall-clock", t.line,
          "std::time() read in result-producing code");
    }
  }
}

// ---------------------------------------------------- determinism-random
//
// All randomness in result paths must flow from the run's seed through
// support/rng (splitmix64 keyed on documented inputs). Ambient entropy —
// rand(), std::random_device, getrandom — produces results no
// differential can reproduce.

void scan_random(const Config&, const SourceFile& f,
                 const std::vector<SourceFile>&, std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kCalls = {
      "rand",    "srand",    "rand_r",    "drand48",   "lrand48",
      "mrand48", "srandom",  "getrandom", "getentropy"};
  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "random_device") {
      add(out, f, "determinism-random", t.line,
          "std::random_device draws ambient entropy; seed from the run's "
          "deterministic RNG (support/rng) instead");
      continue;
    }
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        kCalls.count(t.text) != 0) {
      // Member calls (obj.rand(), obj->random()) are someone else's API.
      if (i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;
      }
      add(out, f, "determinism-random", t.line,
          "nondeterministic '" + std::string(t.text) +
              "()' in result-producing code; derive from the run seed via "
              "support/rng");
    }
  }
}

// -------------------------------------------- determinism-unordered-iter
//
// Iterating an unordered container in result-producing code leaks hash
// order (which varies by libstdc++ version, pointer values and insertion
// history) into whatever the loop feeds: an accumulator, a report line,
// a message send order. Lookups are fine; ordered iteration is fine;
// range-for (or .begin() walks) over unordered_{map,set} is flagged.
// Member declarations are resolved from the file itself plus its sibling
// header (x.cpp -> x.hpp in the scan set), which is where this repo
// declares the members its .cpp files iterate.

bool applies_unordered_iter(const Config& c, std::string_view path) {
  return path_in(c.determinism_scopes, path) ||
         path_in(c.iteration_extra_scopes, path);
}

void collect_unordered_names(const SourceFile& f,
                             std::unordered_set<std::string>& names) {
  static const std::unordered_set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || kUnordered.count(toks[i].text) == 0) {
      continue;
    }
    if (!is_punct(toks[i + 1], "<")) continue;
    // Balance the template argument list, tolerating >> as two tokens.
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], "<")) ++depth;
      if (is_punct(toks[j], ">") && --depth == 0) break;
    }
    if (j >= toks.size()) continue;
    // Skip declarator decorations, then take the declared name.
    std::size_t k = j + 1;
    while (k < toks.size() &&
           (is_punct(toks[k], "*") || is_punct(toks[k], "&") ||
            is_ident(toks[k], "const"))) {
      ++k;
    }
    if (k < toks.size() && toks[k].kind == TokKind::kIdent &&
        !is_ident(toks[k], "iterator") && !is_ident(toks[k], "const_iterator")) {
      // `unordered_map<K,V>::iterator` and friends reach here as `::` —
      // only a plain identifier is a declaration.
      names.insert(std::string(toks[k].text));
    }
  }
}

const SourceFile* sibling_header(const SourceFile& f,
                                 const std::vector<SourceFile>& all) {
  if (f.path.size() < 4 ||
      f.path.compare(f.path.size() - 4, 4, ".cpp") != 0) {
    return nullptr;
  }
  const std::string header = f.path.substr(0, f.path.size() - 4) + ".hpp";
  for (const SourceFile& s : all) {
    if (s.path == header) return &s;
  }
  return nullptr;
}

void scan_unordered_iter(const Config&, const SourceFile& f,
                         const std::vector<SourceFile>& all,
                         std::vector<Finding>& out) {
  std::unordered_set<std::string> names;
  collect_unordered_names(f, names);
  if (const SourceFile* h = sibling_header(f, all)) {
    collect_unordered_names(*h, names);
  }
  if (names.empty()) return;

  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // for ( ... : <range containing an unordered name> )
    if (is_ident(toks[i], "for") && is_punct(toks[i + 1], "(")) {
      const std::size_t close = matching(toks, i + 1, "(", ")");
      if (close == toks.size()) continue;
      // The range-for colon: a lone `:` at paren depth 1 (the lexer emits
      // `::` as one token, so any `:` here is structural).
      std::size_t colon = toks.size();
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        if (is_punct(toks[j], ")")) --depth;
        if (depth == 1 && is_punct(toks[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon == toks.size()) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokKind::kIdent &&
            names.count(std::string(toks[j].text)) != 0) {
          add(out, f, "determinism-unordered-iter", toks[i].line,
              "range-for over unordered container '" +
                  std::string(toks[j].text) +
                  "' in result-producing code: hash order leaks into the "
                  "result; iterate a sorted view or fold "
                  "order-insensitively");
          break;
        }
      }
      continue;
    }
    // <unordered name> . begin ( — iterator walks have the same problem.
    if (toks[i].kind == TokKind::kIdent &&
        names.count(std::string(toks[i].text)) != 0 && i + 3 < toks.size() &&
        (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
        is_ident(toks[i + 2], "begin") && is_punct(toks[i + 3], "(")) {
      add(out, f, "determinism-unordered-iter", toks[i].line,
          "iterator walk over unordered container '" +
              std::string(toks[i].text) + "' in result-producing code");
    }
  }
}

// --------------------------------------------------------- hotpath-alloc
//
// The registered hot functions (event core push/pop/cancel, trace
// record) are proven allocation-free at runtime by counting allocators
// (test_alloc); this rule is the static half of that proof: inside those
// definitions, operator new, malloc, std::string construction, container
// growth calls and std::function are errors. Cold paths factored into
// named helpers (acquire_slot, next_event_chunk) stay callable — the rule
// sees a call, not an allocation; the helper is where the allocation
// belongs.

struct FunctionBody {
  std::size_t begin;  // token index of `{`
  std::size_t end;    // token index of matching `}`
  int line;
};

/// Finds definitions of `name` in `f`: the identifier, not preceded by
/// `.`/`->`, whose parameter list's `)` is followed (through cv/ref/
/// noexcept/trailing-return tokens) by `{`.
std::vector<FunctionBody> find_definitions(const SourceFile& f,
                                           std::string_view name) {
  std::vector<FunctionBody> bodies;
  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], name) || !is_punct(toks[i + 1], "(")) continue;
    if (i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      continue;
    }
    const std::size_t close = matching(toks, i + 1, "(", ")");
    if (close == toks.size()) continue;
    std::size_t j = close + 1;
    bool ok = true;
    while (j < toks.size() && !is_punct(toks[j], "{")) {
      const Token& t = toks[j];
      if (is_ident(t, "const") || is_ident(t, "noexcept") ||
          is_ident(t, "override") || is_ident(t, "final") ||
          is_punct(t, "&") || is_punct(t, "->") || is_punct(t, "::") ||
          t.kind == TokKind::kIdent) {
        ++j;
        continue;
      }
      // `<` of a trailing-return template type, or anything else: only a
      // handful of shapes are definitions; bail on the rest.
      ok = false;
      break;
    }
    if (!ok || j >= toks.size()) continue;
    const std::size_t body_end = matching(toks, j, "{", "}");
    if (body_end == toks.size()) continue;
    bodies.push_back({j, body_end, toks[i].line});
  }
  return bodies;
}

bool applies_hotpath(const Config& c, std::string_view path) {
  for (const HotFunction& h : c.hot_functions) {
    if (path_in({std::string(h.file_suffix)}, path)) return true;
  }
  return false;
}

void scan_hotpath_alloc(const Config& c, const SourceFile& f,
                        const std::vector<SourceFile>&,
                        std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kAllocCalls = {
      "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
      "make_unique", "make_shared", "to_string"};
  static const std::unordered_set<std::string_view> kGrowthMembers = {
      "push_back", "emplace_back", "emplace", "insert",
      "resize",    "reserve",      "append",  "assign"};
  const Tokens& toks = f.tokens();
  for (const HotFunction& h : c.hot_functions) {
    if (!path_in({std::string(h.file_suffix)}, f.path)) continue;
    for (const FunctionBody& body : find_definitions(f, h.function)) {
      const std::string where =
          " in hot function '" + std::string(h.function) +
          "' (steady state must not allocate; move cold work to a named "
          "helper)";
      for (std::size_t i = body.begin + 1; i < body.end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        if (t.text == "new") {
          add(out, f, "hotpath-alloc", t.line, "operator new" + where);
          continue;
        }
        const bool call = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
        const bool member =
            i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
        if (call && !member && kAllocCalls.count(t.text) != 0) {
          add(out, f, "hotpath-alloc", t.line,
              "allocating call '" + std::string(t.text) + "()'" + where);
          continue;
        }
        if (call && member && kGrowthMembers.count(t.text) != 0) {
          add(out, f, "hotpath-alloc", t.line,
              "container growth '." + std::string(t.text) + "()'" + where);
          continue;
        }
        if ((t.text == "string" || t.text == "function") && i >= 2 &&
            is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "std")) {
          add(out, f, "hotpath-alloc", t.line,
              "std::" + std::string(t.text) + " construction" + where);
        }
      }
    }
  }
}

// ---------------------------------------------------------- loop-blocking
//
// The socket transport and the node runtime multiplex every peer through
// one poll() loop; a single blocking call anywhere in those files stalls
// every peer behind it. waitpid must carry WNOHANG, descriptor reads
// require the file to practice O_NONBLOCK discipline, and
// sleeps/system()/popen() have no business in an event loop.

bool applies_loop(const Config& c, std::string_view path) {
  return path_in(c.loop_scopes, path);
}

void scan_loop_blocking(const Config&, const SourceFile& f,
                        const std::vector<SourceFile>&,
                        std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kAlwaysBlocking = {
      "sleep",     "usleep", "nanosleep", "sleep_for", "sleep_until",
      "system",    "popen",  "pclose",    "fread",     "fgets",
      "getline",   "getchar", "scanf",    "fscanf"};
  static const std::unordered_set<std::string_view> kFdReads = {
      "read", "recv", "recvfrom", "recvmsg", "accept"};
  const bool nonblock_discipline =
      f.text.find("O_NONBLOCK") != std::string::npos ||
      f.text.find("SOCK_NONBLOCK") != std::string::npos;
  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || !is_punct(toks[i + 1], "(")) continue;
    const bool member =
        i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (member) continue;  // obj.insert(...), stream.read(...): not libc
    if (t.text == "waitpid") {
      const std::size_t close = matching(toks, i + 1, "(", ")");
      bool has_wnohang = false;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (is_ident(toks[j], "WNOHANG")) has_wnohang = true;
      }
      if (!has_wnohang) {
        add(out, f, "loop-blocking", t.line,
            "waitpid without WNOHANG can block the poll loop on a live "
            "child; reap non-blockingly and re-poll");
      }
      continue;
    }
    if (kAlwaysBlocking.count(t.text) != 0) {
      add(out, f, "loop-blocking", t.line,
          "blocking call '" + std::string(t.text) +
              "()' inside an event-loop file");
      continue;
    }
    if (kFdReads.count(t.text) != 0 && !nonblock_discipline) {
      add(out, f, "loop-blocking", t.line,
          "'" + std::string(t.text) +
              "()' in an event-loop file that never sets O_NONBLOCK; a "
              "slow peer stalls every other peer");
    }
  }
}

// ------------------------------------------------------- wire-fixed-width
//
// Encode/decode paths speak for bytes on the wire: a platform-width type
// (int, long, unsigned, size_t-excepted) in a serialize_/parse_/put_/
// get_ body is a latent cross-host incompatibility — exactly what the
// endianness-stable format exists to prevent.

bool applies_wire(const Config& c, std::string_view path) {
  return path_in(c.wire_scopes, path);
}

bool has_wire_prefix(std::string_view name) {
  for (const std::string_view p :
       {"serialize_", "parse_", "put_", "get_", "extract_"}) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

void scan_fixed_width(const Config&, const SourceFile& f,
                      const std::vector<SourceFile>&,
                      std::vector<Finding>& out) {
  const Tokens& toks = f.tokens();
  // Collect encode/decode function bodies by name prefix.
  std::vector<FunctionBody> bodies;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !has_wire_prefix(toks[i].text)) {
      continue;
    }
    for (const FunctionBody& b : find_definitions(f, toks[i].text)) {
      if (toks[i].line == b.line) bodies.push_back(b);
    }
  }
  for (const FunctionBody& body : bodies) {
    for (std::size_t i = body.begin + 1; i < body.end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      const std::string_view w = t.text;
      if (w != "int" && w != "short" && w != "long" && w != "unsigned" &&
          w != "signed" && w != "float" && w != "double") {
        continue;
      }
      // `unsigned char` / `signed char` are byte types; `long` following
      // `unsigned`/`long` was already flagged once at the first keyword.
      if ((w == "unsigned" || w == "signed") && i + 1 < toks.size() &&
          is_ident(toks[i + 1], "char")) {
        continue;
      }
      if (i >= 1 && (is_ident(toks[i - 1], "unsigned") ||
                     is_ident(toks[i - 1], "signed") ||
                     is_ident(toks[i - 1], "long"))) {
        continue;
      }
      add(out, f, "wire-fixed-width", t.line,
          "platform-width type '" + std::string(w) +
              "' in an encode/decode path; use a fixed-width type "
              "(std::uint32_t, std::int64_t, ...)");
    }
  }
}

// -------------------------------------------------- wire-exhaustive-switch
//
// A switch over a wire tag or journal record kind with a silent default
// swallows the very case the format evolved to add: the new enumerator
// compiles, parses as nothing, and the differential that would have
// caught it only fires if a test happens to exercise the new kind. An
// exhaustive switch (no default) makes -Wswitch/-Werror name the missing
// case at compile time; a defaulted switch must fail loudly (throw /
// fail / abort / XCP_REQUIRE).

bool applies_kind_switch(const Config& c, std::string_view path) {
  return path_in(c.wire_scopes, path) ||
         path_in(c.kind_switch_extra_scopes, path);
}

void scan_exhaustive_switch(const Config&, const SourceFile& f,
                            const std::vector<SourceFile>&,
                            std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kLoud = {
      "throw", "fail", "abort", "unreachable", "XCP_REQUIRE", "assert",
      "exit"};
  const Tokens& toks = f.tokens();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "switch") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t cond_close = matching(toks, i + 1, "(", ")");
    if (cond_close + 1 >= toks.size() || !is_punct(toks[cond_close + 1], "{")) {
      continue;
    }
    const std::size_t body_end = matching(toks, cond_close + 1, "{", "}");
    for (std::size_t j = cond_close + 2; j < body_end; ++j) {
      // A nested switch owns its own default; skip its body wholesale.
      if (is_ident(toks[j], "switch") && j + 1 < body_end &&
          is_punct(toks[j + 1], "(")) {
        const std::size_t nc = matching(toks, j + 1, "(", ")");
        if (nc + 1 < body_end && is_punct(toks[nc + 1], "{")) {
          j = matching(toks, nc + 1, "{", "}");
          continue;
        }
      }
      if (!is_ident(toks[j], "default") || j + 1 >= body_end ||
          !is_punct(toks[j + 1], ":")) {
        continue;
      }
      // Silent unless the default's statement list (up to the next label
      // or the switch end) contains a loud exit.
      bool loud = false;
      for (std::size_t k = j + 2; k < body_end; ++k) {
        if (is_ident(toks[k], "case") || is_ident(toks[k], "default")) break;
        if (toks[k].kind == TokKind::kIdent && kLoud.count(toks[k].text) != 0) {
          loud = true;
          break;
        }
      }
      if (!loud) {
        add(out, f, "wire-exhaustive-switch", toks[j].line,
            "silent 'default:' in a kind switch: a new enumerator would "
            "be swallowed here; drop the default (let -Wswitch name "
            "missing cases) or fail loudly");
      }
    }
  }
}

// ---------------------------------------------- wire-serialize-parse-pair
//
// Every serialize_X in the wire scope must have a parse_X: an encoder
// without a decoder can only be round-trip-tested through some wider
// frame, and its output format silently becomes "whatever the one
// consumer happens to accept".

struct NamedDecl {
  std::string path;
  int line;
};

}  // namespace

void scan_serialize_parse_pairs(const Config& config,
                                const std::vector<SourceFile>& files,
                                std::vector<Finding>& out) {
  std::map<std::string, NamedDecl> serializers;
  std::unordered_set<std::string> parsers;
  for (const SourceFile& f : files) {
    if (!path_in(config.wire_scopes, f.path)) continue;
    const Tokens& toks = f.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], "(")) {
        continue;
      }
      const std::string_view name = toks[i].text;
      if (name.rfind("serialize_", 0) == 0) {
        const std::string suffix(name.substr(std::string_view("serialize_").size()));
        // Prefer the header declaration as the anchor (stable under
        // .cpp refactors); first hit otherwise.
        auto it = serializers.find(suffix);
        const bool is_header = f.path.size() > 4 &&
                               f.path.compare(f.path.size() - 4, 4, ".hpp") == 0;
        if (it == serializers.end() ||
            (is_header && it->second.path.compare(it->second.path.size() - 4,
                                                  4, ".hpp") != 0)) {
          serializers[suffix] = {f.path, toks[i].line};
        }
      } else if (name.rfind("parse_", 0) == 0) {
        parsers.insert(std::string(name.substr(std::string_view("parse_").size())));
      }
    }
  }
  for (const auto& [suffix, decl] : serializers) {
    if (parsers.count(suffix) != 0) continue;
    Finding fd;
    fd.rule = "wire-serialize-parse-pair";
    fd.path = decl.path;
    fd.line = decl.line;
    fd.message = "serialize_" + suffix + " has no matching parse_" + suffix +
                 "; an encoder without a decoder cannot be round-trip "
                 "tested in isolation";
    for (const SourceFile& f : files) {
      if (f.path == decl.path) {
        fd.excerpt = f.line_text(decl.line);
        break;
      }
    }
    out.push_back(std::move(fd));
  }
}

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"determinism-wall-clock",
       "no machine-clock reads in result-producing code",
       applies_determinism, scan_wall_clock},
      {"determinism-random",
       "no ambient entropy in result-producing code",
       applies_determinism, scan_random},
      {"determinism-unordered-iter",
       "no unordered-container iteration feeding results",
       applies_unordered_iter, scan_unordered_iter},
      {"hotpath-alloc",
       "registered hot functions must not allocate",
       applies_hotpath, scan_hotpath_alloc},
      {"loop-blocking",
       "no blocking calls in supervision/event-loop files",
       applies_loop, scan_loop_blocking},
      {"wire-fixed-width",
       "fixed-width types only in encode/decode paths",
       applies_wire, scan_fixed_width},
      {"wire-exhaustive-switch",
       "kind switches are exhaustive or fail loudly",
       applies_kind_switch, scan_exhaustive_switch},
      {"wire-serialize-parse-pair",
       "every serialize_X has a parse_X",
       applies_wire,
       // Cross-file: implemented by scan_serialize_parse_pairs, invoked
       // once per run by the engine; the per-file hook is a no-op.
       [](const Config&, const SourceFile&, const std::vector<SourceFile>&,
          std::vector<Finding>&) {}},
  };
  return kRules;
}

}  // namespace xcp::lint
