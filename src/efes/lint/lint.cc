#include "efes/lint/lint.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>
#include <utility>

#include "efes/common/json_writer.h"
#include "efes/lint/token.h"

namespace efes::lint {
namespace {

constexpr std::string_view kDiscardedStatus = "discarded-status";
constexpr std::string_view kNondeterminism = "nondeterminism";
constexpr std::string_view kUnorderedIteration = "unordered-iteration";
constexpr std::string_view kRawFileWrite = "raw-file-write";
constexpr std::string_view kHeaderHygiene = "header-hygiene";
constexpr std::string_view kBannedFunction = "banned-function";
constexpr std::string_view kUnboundedWait = "unbounded-wait";
constexpr std::string_view kMetricName = "metric-name";
constexpr std::string_view kBadSuppression = "bad-suppression";

/// Check ids a suppression may name (bad-suppression itself is not
/// suppressible — the escape hatch must stay auditable).
constexpr std::string_view kSuppressibleChecks[] = {
    kDiscardedStatus, kNondeterminism, kUnorderedIteration,
    kRawFileWrite,    kHeaderHygiene,  kBannedFunction,
    kUnboundedWait,   kMetricName};

bool PathMatchesAny(std::string_view path,
                    const std::vector<std::string>& patterns) {
  for (const std::string& p : patterns) {
    if (path.find(p) != std::string_view::npos) return true;
  }
  return false;
}

bool IsHeaderPath(std::string_view path) {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  return ends_with(".h") || ends_with(".hh") || ends_with(".hpp");
}

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// An EFES_LINT_ALLOW occurrence parsed out of a comment.
struct Suppression {
  std::string check;
  int line = 0;
};

/// Extracts suppressions from comment tokens. Malformed ones (unknown
/// check id, missing reason) become bad-suppression findings directly.
void CollectSuppressions(const std::vector<Token>& tokens,
                         std::string_view path,
                         std::vector<Suppression>* suppressions,
                         std::vector<Finding>* findings) {
  constexpr std::string_view kMarker = "EFES_LINT_ALLOW(";
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) continue;
    std::string_view text = t.text;
    size_t pos = 0;
    while ((pos = text.find(kMarker, pos)) != std::string_view::npos) {
      int line = t.line + static_cast<int>(std::count(
                              text.begin(), text.begin() + pos, '\n'));
      size_t id_begin = pos + kMarker.size();
      pos = id_begin;  // continue scanning after the marker either way
      // Ids are kebab-case; a non-lowercase first character means this is
      // prose describing the syntax, not a suppression attempt.
      if (id_begin >= text.size() || text[id_begin] < 'a' ||
          text[id_begin] > 'z') {
        continue;
      }
      size_t id_end = text.find(')', id_begin);
      if (id_end == std::string_view::npos) continue;
      std::string check(text.substr(id_begin, id_end - id_begin));
      bool known = std::find(std::begin(kSuppressibleChecks),
                             std::end(kSuppressibleChecks),
                             check) != std::end(kSuppressibleChecks);
      if (!known) {
        findings->push_back({std::string(path), line,
                             std::string(kBadSuppression),
                             "EFES_LINT_ALLOW names unknown check '" + check +
                                 "'",
                             false});
        continue;
      }
      // The reason is mandatory: after ')' and an optional ':', there must
      // be non-whitespace text before the end of the comment line.
      size_t r = id_end + 1;
      if (r < text.size() && text[r] == ':') ++r;
      size_t reason_end = text.find('\n', r);
      if (reason_end == std::string_view::npos) reason_end = text.size();
      std::string_view reason = text.substr(r, reason_end - r);
      bool has_reason = false;
      for (char c : reason) {
        if (c != ' ' && c != '\t' && c != '*' && c != '/') {
          has_reason = true;
          break;
        }
      }
      if (!has_reason) {
        findings->push_back(
            {std::string(path), line, std::string(kBadSuppression),
             "EFES_LINT_ALLOW(" + check + ") has no reason; write "
             "EFES_LINT_ALLOW(" + check + "): <why this is safe>",
             false});
        continue;
      }
      suppressions->push_back({std::move(check), line});
    }
  }
}

/// Index of the matching ')' for the '(' at `open`, or npos. Operates on
/// the code-token vector (comments already filtered out).
size_t MatchParen(const std::vector<Token>& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code[i], "(")) ++depth;
    if (IsPunct(code[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

/// After code[i] == "<", returns the index one past the balanced closing
/// angle bracket, treating ">>" as two closers. Returns npos when no
/// close is found within a sane window (then it was a comparison).
size_t SkipAngles(const std::vector<Token>& code, size_t i) {
  int depth = 0;
  size_t limit = std::min(code.size(), i + 256);
  for (size_t k = i; k < limit; ++k) {
    if (code[k].kind != TokenKind::kPunct) continue;
    if (code[k].text == "<") ++depth;
    if (code[k].text == ">") --depth;
    if (code[k].text == ">>") depth -= 2;
    if (depth <= 0) return k + 1;
  }
  return std::string_view::npos;
}

}  // namespace

bool IsDottedMetricName(std::string_view name) {
  bool seen_dot = false;
  bool segment_char = false;
  for (char c : name) {
    if (c == '.') {
      if (!segment_char) return false;  // empty segment
      seen_dot = true;
      segment_char = false;
      continue;
    }
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      segment_char = true;
      continue;
    }
    return false;
  }
  return seen_dot && segment_char;
}

const std::vector<std::string>& AllCheckIds() {
  static const std::vector<std::string>* ids = []() {
    auto* v = new std::vector<std::string>();  // EFES_LINT_ALLOW(banned-function): intentionally leaked function-local singleton
    for (std::string_view id : kSuppressibleChecks) v->emplace_back(id);
    v->emplace_back(kBadSuppression);
    return v;
  }();
  return *ids;
}

Linter::Linter(LintConfig config) : config_(std::move(config)) {}

void Linter::IndexFile(std::string_view /*path*/, std::string_view content) {
  std::vector<Token> tokens = Tokenize(content);
  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) code.push_back(t);
  }
  // A function "returns Status/Result" when the token stream reads
  //   Status [Qualifier ::]* Name (          or
  //   Result < ... > [Qualifier ::]* Name (
  // which covers declarations in headers and qualified definitions in
  // .cc files. Constructor-style locals (`Status s(...)`) match too;
  // that is harmless noise unless a same-named function exists.
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    size_t name_begin = std::string_view::npos;
    if (code[i].text == "Status") {
      name_begin = i + 1;
    } else if (code[i].text == "Result" && i + 1 < code.size() &&
               IsPunct(code[i + 1], "<")) {
      name_begin = SkipAngles(code, i + 1);
      if (name_begin == std::string_view::npos) continue;
    } else {
      continue;
    }
    // Qualified-id: ident (:: ident)* then '('.
    size_t k = name_begin;
    std::string_view last_name;
    while (k + 1 < code.size() && code[k].kind == TokenKind::kIdentifier) {
      last_name = code[k].text;
      if (IsPunct(code[k + 1], "::")) {
        k += 2;
        continue;
      }
      if (IsPunct(code[k + 1], "(")) {
        status_functions_.emplace(last_name);
      }
      break;
    }
  }
  // Disambiguation: a name also declared with some OTHER return type
  // ("Type Name (" where Type is not Status) is overloaded across
  // classes — call sites can't be attributed by name alone, so the check
  // skips it and leaves those to the compiler's [[nodiscard]]. The
  // keyword filter keeps `return Foo(...)` / `throw Foo(...)` / `new
  // Foo(...)` from being mistaken for declarations.
  for (size_t i = 0; i + 2 < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier ||
        code[i + 1].kind != TokenKind::kIdentifier ||
        !IsPunct(code[i + 2], "(")) {
      continue;
    }
    std::string_view first = code[i].text;
    if (first == "Status" || first == "return" || first == "throw" ||
        first == "new" || first == "delete" || first == "else" ||
        first == "case" || first == "goto" || first == "do" ||
        first == "operator" || first == "co_return" ||
        first == "co_yield" || first == "co_await") {
      continue;
    }
    non_status_functions_.emplace(code[i + 1].text);
  }
}

void Linter::CheckFile(std::string_view path, std::string_view content,
                       std::vector<Finding>* findings) const {
  std::vector<Token> tokens = Tokenize(content);
  std::vector<Finding> raw;
  std::vector<Suppression> suppressions;
  CollectSuppressions(tokens, path, &suppressions, &raw);

  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) code.push_back(t);
  }
  auto add = [&](std::string_view check, int line, std::string message) {
    raw.push_back(
        {std::string(path), line, std::string(check), std::move(message),
         false});
  };
  const bool header = IsHeaderPath(path);
  const bool allow_nondet =
      PathMatchesAny(path, config_.nondeterminism_allowlist);
  const bool allow_raw_write =
      PathMatchesAny(path, config_.raw_file_write_allowlist);
  const bool allow_banned =
      PathMatchesAny(path, config_.banned_function_allowlist);
  const bool allow_unbounded_wait =
      PathMatchesAny(path, config_.unbounded_wait_allowlist);
  const bool ordered_output =
      PathMatchesAny(path, config_.ordered_output_paths);

  // ---- header-hygiene -------------------------------------------------
  if (header) {
    bool pragma_once = false;
    std::string_view ifndef_macro;
    bool guard_defined = false;
    for (size_t i = 0; i + 2 < code.size(); ++i) {
      if (!IsPunct(code[i], "#")) continue;
      if (IsIdent(code[i + 1], "pragma") && IsIdent(code[i + 2], "once")) {
        pragma_once = true;
      }
      if (IsIdent(code[i + 1], "ifndef") &&
          code[i + 2].kind == TokenKind::kIdentifier &&
          ifndef_macro.empty()) {
        ifndef_macro = code[i + 2].text;
      }
      if (IsIdent(code[i + 1], "define") &&
          code[i + 2].kind == TokenKind::kIdentifier &&
          code[i + 2].text == ifndef_macro) {
        guard_defined = true;
      }
    }
    if (!pragma_once && !(!ifndef_macro.empty() && guard_defined)) {
      add(kHeaderHygiene, 1,
          "header lacks an include guard (#pragma once or #ifndef/#define)");
    }
    for (size_t i = 0; i + 1 < code.size(); ++i) {
      if (IsIdent(code[i], "using") && IsIdent(code[i + 1], "namespace")) {
        add(kHeaderHygiene, code[i].line,
            "'using namespace' in a header leaks into every includer");
      }
    }
  }

  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool member_access =
        i > 0 && (IsPunct(code[i - 1], ".") || IsPunct(code[i - 1], "->"));
    const bool called = i + 1 < code.size() && IsPunct(code[i + 1], "(");

    // ---- nondeterminism ----------------------------------------------
    if (!allow_nondet) {
      if ((t.text == "rand" || t.text == "srand") && called &&
          !member_access) {
        add(kNondeterminism, t.line,
            std::string(t.text) +
                "() is unseeded global entropy; use efes::Random "
                "(common/random)");
      }
      if (t.text == "random_device" && !member_access) {
        add(kNondeterminism, t.line,
            "std::random_device is nondeterministic; seed efes::Random "
            "explicitly");
      }
      if (t.text == "time" && called && !member_access) {
        add(kNondeterminism, t.line,
            "time() reads the wall clock; use common/clock");
      }
      if (t.text == "system_clock" && i + 3 < code.size() &&
          IsPunct(code[i + 1], "::") && IsIdent(code[i + 2], "now") &&
          IsPunct(code[i + 3], "(")) {
        add(kNondeterminism, t.line,
            "system_clock::now() outside common/clock makes output "
            "time-dependent");
      }
    }

    // ---- raw-file-write ----------------------------------------------
    if (!allow_raw_write) {
      if (t.text == "ofstream" && !member_access) {
        add(kRawFileWrite, t.line,
            "std::ofstream bypasses WriteFileAtomic (common/file_io); "
            "readers can observe partial writes");
      }
      if (t.text == "fopen" && called && !member_access) {
        add(kRawFileWrite, t.line,
            "fopen() bypasses WriteFileAtomic (common/file_io)");
      }
      if (t.text == "rename" && called && i >= 2 &&
          IsPunct(code[i - 1], "::") &&
          (IsIdent(code[i - 2], "filesystem") ||
           IsIdent(code[i - 2], "fs"))) {
        add(kRawFileWrite, t.line,
            "filesystem::rename outside common/file_io skips the "
            "retry/backoff and temp-file protocol");
      }
    }

    // ---- banned-function ---------------------------------------------
    if (!allow_banned) {
      if ((t.text == "strcpy" || t.text == "sprintf" || t.text == "atoi") &&
          called && !member_access) {
        add(kBannedFunction, t.line,
            std::string(t.text) + "() is banned (unbounded/UB-prone); use "
            "std::string / snprintf / ParseInt64");
      }
      if (t.text == "new" && !(i > 0 && IsIdent(code[i - 1], "operator"))) {
        add(kBannedFunction, t.line,
            "naked 'new'; use values, containers, or unique_ptr (leaked "
            "singletons need an EFES_LINT_ALLOW with a reason)");
      }
      if (t.text == "delete" &&
          !(i > 0 && (IsPunct(code[i - 1], "=") ||
                      IsIdent(code[i - 1], "operator")))) {
        add(kBannedFunction, t.line,
            "naked 'delete'; owning raw pointers are banned");
      }
      if (t.text == "mutable_effort_model") {
        add(kBannedFunction, t.line,
            "mutable_effort_model() was removed; use "
            "set_effort_model(EffortModel), which validates the model");
      }
    }

    // ---- unbounded-wait ----------------------------------------------
    if (!allow_unbounded_wait) {
      if ((t.text == "sleep_for" || t.text == "sleep_until") && called) {
        add(kUnboundedWait, t.line,
            std::string(t.text) +
                "() blocks with no cancellation path; block through a "
                "predicate/deadline primitive (CancelToken::WaitCancelled, "
                "wait_for with predicate) or keep the sleep in common/");
      }
      if (t.text == "wait" && called && member_access) {
        // Count top-level arguments of the call: `cv.wait(lock)` (and
        // `future.wait()`) parks forever; `cv.wait(lock, predicate)`
        // re-checks a condition and can observe shutdown. A comma at
        // paren depth 1 means a predicate was passed.
        bool has_predicate = false;
        int depth = 0;
        size_t limit = std::min(code.size(), i + 257);
        for (size_t k = i + 1; k < limit; ++k) {
          if (code[k].kind != TokenKind::kPunct) continue;
          if (code[k].text == "(") {
            ++depth;
          } else if (code[k].text == ")") {
            --depth;
            if (depth <= 0) break;
          } else if (code[k].text == "," && depth == 1) {
            has_predicate = true;
            break;
          }
        }
        if (!has_predicate) {
          add(kUnboundedWait, t.line,
              ".wait() without a predicate can block forever (missed "
              "notify, shutdown); use wait(lock, predicate) or a "
              "wait_for/wait_until overload");
        }
      }
    }

    // ---- metric-name -------------------------------------------------
    if (t.text == "GetCounter" || t.text == "GetGauge" ||
        t.text == "GetHistogram" || t.text == "TraceSpan") {
      // The Get* registrars are calls; TraceSpan also appears as a
      // declaration (`TraceSpan span("name", ...)`).
      size_t open = std::string_view::npos;
      if (i + 1 < code.size() && IsPunct(code[i + 1], "(")) {
        open = i + 1;
      } else if (t.text == "TraceSpan" && i + 2 < code.size() &&
                 code[i + 1].kind == TokenKind::kIdentifier &&
                 IsPunct(code[i + 2], "(")) {
        open = i + 2;
      }
      // Only complete literal names are checkable: the literal must be
      // the whole first argument (followed by ',' or ')'), not a prefix
      // of a concatenation or a runtime-built name.
      if (open != std::string_view::npos && open + 2 < code.size() &&
          code[open + 1].kind == TokenKind::kString &&
          (IsPunct(code[open + 2], ",") || IsPunct(code[open + 2], ")"))) {
        std::string_view literal = code[open + 1].text;
        if (literal.size() >= 2 && literal.front() == '"' &&
            literal.back() == '"' &&
            !IsDottedMetricName(literal.substr(1, literal.size() - 2))) {
          add(kMetricName, code[open + 1].line,
              "metric/span name " + std::string(literal) +
                  " violates the dotted lowercase scheme "
                  "module.phase.metric ([a-z0-9_] segments, two or more)");
        }
      }
    }

    // ---- unordered-iteration (decl tracking happens below) -----------

    // ---- discarded-status --------------------------------------------
    if (called && status_functions_.count(t.text) > 0 &&
        non_status_functions_.count(t.text) == 0) {
      // Walk back over the qualifier/member chain to the statement anchor.
      size_t chain = i;
      while (chain >= 2 &&
             (IsPunct(code[chain - 1], "::") ||
              IsPunct(code[chain - 1], ".") ||
              IsPunct(code[chain - 1], "->")) &&
             code[chain - 2].kind == TokenKind::kIdentifier) {
        chain -= 2;
      }
      bool chained_receiver =
          chain >= 1 && (IsPunct(code[chain - 1], "::") ||
                         IsPunct(code[chain - 1], ".") ||
                         IsPunct(code[chain - 1], "->"));
      if (chained_receiver) continue;  // receiver is an expression; skip
      // Declaration/definition site, not a call: return type precedes.
      if (chain >= 1 && (IsIdent(code[chain - 1], "Status") ||
                         IsPunct(code[chain - 1], ">") ||
                         IsPunct(code[chain - 1], "~"))) {
        continue;
      }
      size_t close = MatchParen(code, i + 1);
      if (close == std::string_view::npos || close + 1 >= code.size()) {
        continue;
      }
      if (!IsPunct(code[close + 1], ";")) continue;  // result is consumed
      bool discarded = false;
      if (chain == 0) {
        discarded = true;
      } else {
        const Token& anchor = code[chain - 1];
        if (IsPunct(anchor, ";") || IsPunct(anchor, "{") ||
            IsPunct(anchor, "}") || IsIdent(anchor, "else") ||
            IsIdent(anchor, "do")) {
          discarded = true;
        } else if (IsPunct(anchor, ")")) {
          // `(void)Call();` is an explicit discard; `if (c) Call();` is
          // not. Distinguish by the contents of the closing paren group.
          size_t rp = chain - 1;
          bool void_cast = rp >= 2 && IsIdent(code[rp - 1], "void") &&
                           IsPunct(code[rp - 2], "(");
          discarded = !void_cast;
        }
      }
      if (discarded) {
        add(kDiscardedStatus, t.line,
            "result of '" + std::string(t.text) +
                "' (Status/Result) is ignored; check it, propagate it, or "
                "cast to (void) with an EFES_LINT_ALLOW reason");
      }
    }
  }

  // ---- unordered-iteration -------------------------------------------
  if (ordered_output) {
    // Names declared (or returned) with an unordered container type.
    std::set<std::string, std::less<>> unordered_names;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
      if (code[i].kind != TokenKind::kIdentifier ||
          (code[i].text != "unordered_map" &&
           code[i].text != "unordered_set" &&
           code[i].text != "unordered_multimap" &&
           code[i].text != "unordered_multiset")) {
        continue;
      }
      if (!IsPunct(code[i + 1], "<")) continue;
      size_t after = SkipAngles(code, i + 1);
      if (after == std::string_view::npos) continue;
      while (after < code.size() &&
             (IsPunct(code[after], "&") || IsPunct(code[after], "*") ||
              IsIdent(code[after], "const"))) {
        ++after;
      }
      if (after < code.size() &&
          code[after].kind == TokenKind::kIdentifier) {
        unordered_names.emplace(code[after].text);
      }
    }
    for (size_t i = 0; i + 1 < code.size(); ++i) {
      if (!IsIdent(code[i], "for") || !IsPunct(code[i + 1], "(")) continue;
      size_t close = MatchParen(code, i + 1);
      if (close == std::string_view::npos) continue;
      // Range-for: a ':' at depth 1 inside the for-parens.
      size_t colon = std::string_view::npos;
      int depth = 0;
      for (size_t k = i + 1; k < close; ++k) {
        if (IsPunct(code[k], "(")) ++depth;
        if (IsPunct(code[k], ")")) --depth;
        if (depth == 1 && IsPunct(code[k], ":")) {
          colon = k;
          break;
        }
      }
      if (colon == std::string_view::npos) continue;
      for (size_t k = colon + 1; k < close; ++k) {
        if (code[k].kind == TokenKind::kIdentifier &&
            unordered_names.count(code[k].text) > 0) {
          add(kUnorderedIteration, code[i].line,
              "iterating '" + std::string(code[k].text) +
                  "' (unordered container) in an output-rendering path; "
                  "iteration order leaks into report bytes — sort keys "
                  "first or use std::map");
          break;
        }
      }
    }
  }

  // ---- apply suppressions --------------------------------------------
  for (Finding& f : raw) {
    if (f.check == kBadSuppression) continue;
    for (const Suppression& s : suppressions) {
      if (s.check == f.check && (s.line == f.line || s.line == f.line - 1)) {
        f.suppressed = true;
        break;
      }
    }
  }
  std::sort(raw.begin(), raw.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    if (a.check != b.check) return a.check < b.check;
    return a.message < b.message;
  });
  findings->insert(findings->end(), std::make_move_iterator(raw.begin()),
                   std::make_move_iterator(raw.end()));
}

std::vector<Finding> Linter::Run(
    const std::vector<std::pair<std::string, std::string>>& files) const {
  Linter pass(config_);
  for (const auto& [path, content] : files) {
    pass.IndexFile(path, content);
  }
  std::vector<Finding> findings;
  for (const auto& [path, content] : files) {
    pass.CheckFile(path, content, &findings);
  }
  return findings;
}

std::string RenderText(const std::vector<Finding>& findings,
                       bool show_suppressed) {
  std::string out;
  size_t shown = 0;
  for (const Finding& f : findings) {
    if (f.suppressed && !show_suppressed) continue;
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.check + "] " +
           f.message;
    if (f.suppressed) out += " (suppressed)";
    out += "\n";
    ++shown;
  }
  out += "efes_lint: " + std::to_string(CountUnsuppressed(findings)) +
         " unsuppressed finding(s), " +
         std::to_string(findings.size() - CountUnsuppressed(findings)) +
         " suppressed";
  if (!show_suppressed && shown != findings.size()) {
    out += " (hidden)";
  }
  out += "\n";
  return out;
}

std::string RenderJson(const std::vector<Finding>& findings) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("findings").BeginArray();
  for (const Finding& f : findings) {
    writer.BeginObject();
    writer.Key("file").String(f.file);
    writer.Key("line").Number(static_cast<int64_t>(f.line));
    writer.Key("check").String(f.check);
    writer.Key("message").String(f.message);
    writer.Key("suppressed").Bool(f.suppressed);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("total").Number(findings.size());
  writer.Key("unsuppressed").Number(CountUnsuppressed(findings));
  writer.EndObject();
  return writer.ToString();
}

size_t CountUnsuppressed(const std::vector<Finding>& findings) {
  size_t count = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++count;
  }
  return count;
}

}  // namespace efes::lint
