#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace dmwlint {

namespace {

// ---- source model ----------------------------------------------------------

struct SourceLine {
  std::string code;     ///< literals and comments blanked with spaces
  std::string raw;      ///< the line verbatim (for #include path checks)
  std::string comment;  ///< concatenated comment text of this line
  bool has_code = false;
};

struct SourceFile {
  std::string path;
  std::vector<std::string> components;  ///< path split on '/' and '\\'
  std::vector<SourceLine> lines;        ///< lines[i] is line i+1
  std::vector<bool> ct_region;          ///< inside a constant-time region
};

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> out;
  std::string part;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!part.empty()) out.push_back(part);
      part.clear();
    } else {
      part.push_back(c);
    }
  }
  if (!part.empty()) out.push_back(part);
  return out;
}

bool has_component(const SourceFile& file, std::string_view name) {
  for (const auto& c : file.components)
    if (c == name) return true;
  return false;
}

bool has_adjacent(const SourceFile& file, std::string_view a,
                  std::string_view b) {
  for (std::size_t i = 0; i + 1 < file.components.size(); ++i)
    if (file.components[i] == a && file.components[i + 1] == b) return true;
  return false;
}

bool is_header(const SourceFile& file) {
  return file.path.ends_with(".hpp") || file.path.ends_with(".h");
}

/// Split text into lines, blanking string/char literals and comments in the
/// code view and collecting comment text separately. Handles // and /* */
/// comments, "..." and '...' literals with escapes, and R"delim(...)delim"
/// raw strings.
SourceFile parse_source(const std::string& path, std::string_view text) {
  SourceFile file;
  file.path = path;
  file.components = split_path(path);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  // Raw lines, verbatim, for the #include checks (paths are string-like and
  // would otherwise be blanked).
  std::vector<std::string> raw_lines;
  {
    std::string current;
    for (char c : text) {
      if (c == '\n') {
        raw_lines.push_back(std::move(current));
        current.clear();
      } else {
        current += c;
      }
    }
    raw_lines.push_back(std::move(current));
  }

  State state = State::kCode;
  std::string raw_delim;  // for raw strings: ")" + delim + "\""
  std::string code, comment;

  auto flush_line = [&] {
    SourceLine line;
    line.code = code;
    if (file.lines.size() < raw_lines.size())
      line.raw = raw_lines[file.lines.size()];
    line.comment = comment;
    line.has_code =
        std::any_of(code.begin(), code.end(),
                    [](unsigned char c) { return !std::isspace(c); });
    file.lines.push_back(std::move(line));
    code.clear();
    comment.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R (and not an identifier like FOUR).
          const bool raw =
              !code.empty() && code.back() == 'R' &&
              (code.size() < 2 ||
               (!std::isalnum(static_cast<unsigned char>(
                    code[code.size() - 2])) &&
                code[code.size() - 2] != '_'));
          if (raw) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(' && text[j] != '\n')
              delim.push_back(text[j++]);
            raw_delim = ")" + delim + "\"";
            state = State::kRawString;
            i = j;  // consume up to and including '('
            code += ' ';
          } else {
            state = State::kString;
            code += ' ';
          }
        } else if (c == '\'') {
          state = State::kChar;
          code += ' ';
        } else {
          code += c;
        }
        break;
      case State::kLineComment:
        comment += c;
        code += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code += "  ";
          ++i;
        } else {
          comment += c;
          code += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          code += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code += ' ';
        } else {
          code += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code += ' ';
        } else {
          code += ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            if (i + k < text.size() && text[i + k] != '\n') code += ' ';
          }
          i += raw_delim.size() - 1;
          code += ' ';
        } else {
          code += ' ';
        }
        break;
    }
  }
  flush_line();

  // Constant-time regions, from comment directives. A directive must start
  // the comment (prose *mentioning* a directive does not count).
  file.ct_region.assign(file.lines.size(), false);
  bool in_region = false;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    std::string trimmed = file.lines[i].comment;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (trimmed.starts_with("dmwlint: end-constant-time")) {
      in_region = false;
      continue;
    }
    if (trimmed.starts_with("dmwlint: constant-time")) {
      in_region = true;
      continue;  // the directive line itself is exempt
    }
    file.ct_region[i] = in_region;
  }
  return file;
}

/// Every rule slug named by `dmwlint:allow(...)` directives in one line's
/// comment text. An allow takes a comma-separated list —
/// `dmwlint:allow(raw-clock, banned-pattern)` — so one comment can cover a
/// line that trips several rules. Tokens that are not even slug-shaped
/// (`<rule>` placeholders in prose) are dropped here; slug-shaped tokens
/// are kept verbatim so rule_bad_allow can flag unknown ones.
std::vector<std::string> allow_slugs(const std::string& comment) {
  std::vector<std::string> slugs;
  const std::string kTag = "dmwlint:allow(";
  for (std::size_t pos = comment.find(kTag); pos != std::string::npos;
       pos = comment.find(kTag, pos + 1)) {
    const std::size_t open = pos + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) continue;
    std::string token;
    auto flush = [&] {
      if (!token.empty()) slugs.push_back(token);
      token.clear();
    };
    for (std::size_t i = open; i < close; ++i) {
      const char c = comment[i];
      if (c == ',')
        flush();
      else if (!std::isspace(static_cast<unsigned char>(c)))
        token.push_back(c);
    }
    flush();
  }
  return slugs;
}

bool slug_shaped(const std::string& token) {
  if (token.empty() || !std::islower(static_cast<unsigned char>(token[0])))
    return false;
  return std::all_of(token.begin(), token.end(), [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '-';
  });
}

bool line_allows(const SourceLine& line, const std::string& rule) {
  const auto slugs = allow_slugs(line.comment);
  return std::find(slugs.begin(), slugs.end(), rule) != slugs.end();
}

/// `// dmwlint:allow(<rule>)` (or `allow(<rule>, <rule>)`) suppresses a
/// finding when it sits on the finding line itself, or on a comment-only
/// line in the comment block above it — blank lines between the comment
/// and the code are fine; the walk stops at the first line containing
/// code.
bool allowed(const SourceFile& file, std::size_t index,
             const std::string& rule) {
  if (line_allows(file.lines[index], rule)) return true;
  for (std::size_t i = index; i-- > 0;) {
    if (file.lines[i].has_code) break;
    if (line_allows(file.lines[i], rule)) return true;
  }
  return false;
}

void report(std::vector<Finding>& findings, const SourceFile& file,
            std::size_t index, const std::string& rule,
            std::string message) {
  if (allowed(file, index, rule)) return;
  findings.push_back(
      Finding{file.path, index + 1, rule, std::move(message)});
}

// ---- rule: naive-call ------------------------------------------------------

/// True when the *_naive occurrence at `pos` is a declaration or definition
/// (preceded by a type name) rather than a call.
bool is_declaration_context(const std::string& code, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  if (i == 0) return false;  // continuation line: assume call
  const char prev = code[i - 1];
  if (prev == '>' || prev == '&' || prev == '*') return true;  // return type
  if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_') {
    // Extract the word: keywords that precede expressions mean a call.
    std::size_t end = i, start = i;
    while (start > 0 &&
           (std::isalnum(static_cast<unsigned char>(code[start - 1])) ||
            code[start - 1] == '_'))
      --start;
    const std::string word = code.substr(start, end - start);
    return word != "return" && word != "else" && word != "case" &&
           word != "co_return";
  }
  return false;  // operator / punctuation: a call site
}

void rule_naive_call(const SourceFile& file,
                     std::vector<Finding>& findings) {
  if (has_component(file, "tests") || has_component(file, "bench")) return;
  static const std::regex re(
      R"(([A-Za-z_][A-Za-z0-9_]*_naive)\s*(?:<[^<>;]*>)?\s*\()");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (std::sregex_iterator it(code.begin(), code.end(), re), end;
         it != end; ++it) {
      const auto pos = static_cast<std::size_t>(it->position(0));
      if (is_declaration_context(code, pos)) continue;
      report(findings, file, i, "naive-call",
             "call to '" + (*it)[1].str() +
                 "' outside tests/bench: naive paths are differential "
                 "oracles and skew the Thm. 12 op-count accounting");
    }
  }
}

// ---- rule: secret-sink -----------------------------------------------------

std::vector<std::string> collect_secret_identifiers(const SourceFile& file) {
  static const std::regex decl_re(
      R"((?:\bSecret\s*<[^;{}()]*>|\bAeadKey\b|\bHmacSha256\b)\s*[&*]?\s*([A-Za-z_]\w*)\s*(?:[;={(,)\[]|$))");
  std::vector<std::string> names;
  for (const auto& line : file.lines) {
    for (std::sregex_iterator it(line.code.begin(), line.code.end(), decl_re),
         end;
         it != end; ++it) {
      const std::string name = (*it)[1].str();
      if (name == "reveal" || name == "reveal_mut") continue;
      if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
    }
  }
  return names;
}

/// After an identifier occurrence (and any [index] suffixes), the only
/// sanctioned continuation into a sink is .reveal() / ->reveal().
bool followed_by_reveal(const std::string& text, std::size_t after) {
  std::size_t i = after;
  for (;;) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i < text.size() && text[i] == '[') {
      int depth = 1;
      ++i;
      while (i < text.size() && depth > 0) {
        if (text[i] == '[') ++depth;
        if (text[i] == ']') --depth;
        ++i;
      }
      continue;
    }
    break;
  }
  return text.compare(i, 7, ".reveal") == 0 ||
         text.compare(i, 8, "->reveal") == 0;
}

void rule_secret_sink(const SourceFile& file,
                      std::vector<Finding>& findings) {
  const std::vector<std::string> secrets = collect_secret_identifiers(file);
  if (secrets.empty()) return;
  static const std::regex sink_re(
      R"(\b(?:DMW_(?:LOG|TRACE|DEBUG|INFO|WARN|ERROR)\b|std::cout\b|std::cerr\b|printf\s*\(|fprintf\s*\(|fputs\s*\(|JsonWriter\b|\.key\s*\(|\.field\s*\(|write_scalar\s*\(|write_elem\s*\())");
  constexpr std::size_t kMaxStatementLines = 6;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (!std::regex_search(file.lines[i].code, sink_re)) continue;
    // Assemble the statement: this line plus continuations until ';'.
    std::string statement;
    std::size_t last = i;
    for (std::size_t j = i;
         j < file.lines.size() && j < i + kMaxStatementLines; ++j) {
      statement += file.lines[j].code;
      statement += '\n';
      last = j;
      if (file.lines[j].code.find(';') != std::string::npos) break;
    }
    for (const auto& name : secrets) {
      const std::regex id_re("\\b" + name + "\\b");
      bool flagged = false;
      for (std::sregex_iterator it(statement.begin(), statement.end(), id_re),
           end;
           it != end && !flagged; ++it) {
        const auto after =
            static_cast<std::size_t>(it->position(0)) + name.size();
        if (!followed_by_reveal(statement, after)) flagged = true;
      }
      if (flagged) {
        report(findings, file, i, "secret-sink",
               "Secret-typed identifier '" + name +
                   "' reaches a logging/serialization sink without "
                   "reveal(): secrets leave the process only through the "
                   "audited reveal() token");
      }
    }
    i = last;  // do not re-flag continuation lines of the same statement
  }
}

// ---- rule: ct-branch -------------------------------------------------------

void rule_ct_branch(const SourceFile& file, std::vector<Finding>& findings) {
  static const std::regex branch_re(
      R"(\bif\s*\(|\bswitch\s*\(|\?|&&|\|\|)");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (!file.ct_region[i]) continue;
    const std::string& code = file.lines[i].code;
    for (std::sregex_iterator it(code.begin(), code.end(), branch_re), end;
         it != end; ++it) {
      report(findings, file, i, "ct-branch",
             "branch/short-circuit '" + it->str() +
                 "' inside a `dmwlint: constant-time` region: control flow "
                 "here must not depend on secret data");
    }
  }
}

// ---- rule: banned-pattern --------------------------------------------------

void rule_banned_pattern(const SourceFile& file,
                         std::vector<Finding>& findings) {
  struct Pattern {
    const char* regex;
    const char* message;
    bool protocol_dirs_only;  ///< src/dmw, src/net, src/exp
    bool lib_and_tools_only;  ///< src/, tools/
  };
  static const Pattern kPatterns[] = {
      {R"(\b(?:s?rand)\s*\()",
       "libc rand()/srand(): use support/rng.hpp (Xoshiro256ss) or "
       "crypto::ChaChaRng so runs stay reproducible and secrets stay "
       "unpredictable",
       false, false},
      {R"(\bassert\s*\()",
       "raw assert(): use DMW_CHECK/DMW_REQUIRE, which throw and let "
       "protocol code translate violations into aborts",
       false, false},
      {R"(\bstd::unordered_(?:map|set|multimap|multiset)\b)",
       "unordered container in protocol-visible code: iteration order is "
       "implementation-defined and leaks nondeterminism into transcripts "
       "and traffic accounting",
       true, false},
      {R"(\busing\s+namespace\s+std\b)",
       "`using namespace std` pollutes every including TU", false, false},
      {R"(\bstd::cerr\b|\bfprintf\s*\(\s*stderr\b)",
       "raw stderr diagnostic: route through the leveled logger "
       "(support/logging.hpp) so sinks stay auditable",
       false, true},
  };
  const bool in_protocol_dirs = has_adjacent(file, "src", "dmw") ||
                                has_adjacent(file, "src", "net") ||
                                has_adjacent(file, "src", "exp");
  const bool in_lib_or_tools =
      has_component(file, "src") || has_component(file, "tools");
  for (const auto& pattern : kPatterns) {
    if (pattern.protocol_dirs_only && !in_protocol_dirs) continue;
    if (pattern.lib_and_tools_only && !in_lib_or_tools) continue;
    const std::regex re(pattern.regex);
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      if (std::regex_search(file.lines[i].code, re))
        report(findings, file, i, "banned-pattern", pattern.message);
    }
  }
}

// ---- rule: raw-thread ------------------------------------------------------

/// Protocol code (src/dmw, src/exp) must not reach for raw threading
/// primitives: all parallelism goes through support/thread_pool.hpp, whose
/// audited deque/steal scheduling is what makes
/// parallel runs bit-identical to sequential ones and keeps the TSan CI job
/// meaningful. The ban covers the deque/steal building blocks too —
/// hand-rolled work queues (std::latch/barrier/semaphore joins, promise/
/// future plumbing) would sit outside the pool's epoch accounting and span
/// flushing.
///
/// Library-wide (all of src/ except support/annotations.hpp, which wraps
/// them), the raw *lock* vocabulary is banned too: std::mutex,
/// std::condition_variable and the std lock holders carry no capability
/// attributes, so a lock taken through them is invisible to the
/// -Wthread-safety CI job. Locking goes through dmw::Mutex / MutexLock /
/// CondVar (support/annotations.hpp). std::thread itself stays legal in
/// support/ — ThreadPool is its sanctioned home.
void rule_raw_thread(const SourceFile& file, std::vector<Finding>& findings) {
  const bool in_protocol =
      has_adjacent(file, "src", "dmw") || has_adjacent(file, "src", "exp");
  const bool lock_ban = has_component(file, "src") &&
                        !has_adjacent(file, "support", "annotations.hpp");
  if (!in_protocol && !lock_ban) return;
  static const std::regex lock_re(
      R"(\bstd::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b|\bstd::condition_variable(?:_any)?\b|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  static const std::regex protocol_re(
      R"(\bstd::(?:jthread|thread)\b|\bstd::(?:async|atomic_thread_fence)\b|\bstd::(?:latch|barrier)\b|\bstd::(?:counting_|binary_)semaphore\b|\bstd::(?:promise|packaged_task)\b|\bstd::stop_(?:token|source|callback)\b|\.\s*detach\s*\(\s*\))");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (lock_ban) {
      for (std::sregex_iterator it(code.begin(), code.end(), lock_re), end;
           it != end; ++it) {
        report(findings, file, i, "raw-thread",
               "raw lock primitive '" + it->str() +
                   "' carries no capability attributes and is invisible to "
                   "-Wthread-safety: use dmw::Mutex / MutexLock / CondVar "
                   "(support/annotations.hpp)");
      }
    }
    if (!in_protocol) continue;
    for (std::sregex_iterator it(code.begin(), code.end(), protocol_re), end;
         it != end; ++it) {
      report(findings, file, i, "raw-thread",
             "raw threading primitive '" + it->str() +
                 "' in protocol code: parallelism goes through "
                 "support/thread_pool.hpp (ThreadPool), whose deterministic "
                 "sharding keeps parallel runs bit-identical and TSan-clean");
    }
  }
}

// ---- rule: loop-inverse ----------------------------------------------------

/// Field/group inversions are the single most expensive scalar primitive
/// (an extended-GCD walk on Group64, a full BigUInt eGCD on Group256), and
/// Montgomery's trick turns n of them into 1 inversion + 3(n-1)
/// multiplications. Protocol and polynomial code (src/dmw, src/poly) must
/// therefore not call inv()/sinv()/mod_inv() from inside a loop body: hoist
/// the denominators into a vector and use batch_inverse()
/// (numeric/batchinv.hpp). Paper-literal transcriptions kept as differential
/// oracles carry a `dmwlint:allow(loop-inverse)` comment.
///
/// Loop bodies are tracked with a small brace scanner over the code view
/// (string/comment text already blanked): a `for (...)` / `while (...)`
/// header opens either a braced body (tracked as a stack of brace depths,
/// so nesting works) or a braceless single statement (tracked until its
/// terminating ';'). Calls in the loop *header* itself run once and are not
/// flagged.
void rule_loop_inverse(const SourceFile& file,
                       std::vector<Finding>& findings) {
  if (!has_adjacent(file, "src", "dmw") && !has_adjacent(file, "src", "poly"))
    return;
  static const std::regex inv_re(
      R"(\b(?:[A-Za-z_]\w*\s*(?:\.|->)\s*)?(sinv|inv|mod_inv)\s*\()");
  static const std::regex loop_re(R"(\b(?:for|while)\s*\()");

  int depth = 0;                 // brace depth
  std::vector<int> loop_bodies;  // brace depths of open braced loop bodies
  bool in_header = false;        // inside the (...) of a loop header
  int header_parens = 0;
  bool awaiting_body = false;  // header closed, body not yet seen
  bool pending_push = false;   // next '{' opens a loop body
  bool braceless = false;      // in a single-statement body, until ';'
  int stmt_parens = 0;

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    // Positions where a loop header's '(' sits, and where inv-calls start.
    std::vector<std::size_t> header_opens;
    for (std::sregex_iterator it(code.begin(), code.end(), loop_re), end;
         it != end; ++it) {
      header_opens.push_back(static_cast<std::size_t>(it->position(0)) +
                             it->length(0) - 1);
    }
    std::vector<std::pair<std::size_t, std::string>> inv_calls;
    for (std::sregex_iterator it(code.begin(), code.end(), inv_re), end;
         it != end; ++it) {
      inv_calls.emplace_back(static_cast<std::size_t>(it->position(0)),
                             (*it)[1].str());
    }
    std::size_t next_call = 0;
    bool reported_this_line = false;
    for (std::size_t pos = 0; pos < code.size(); ++pos) {
      const char c = code[pos];
      if (awaiting_body && !std::isspace(static_cast<unsigned char>(c))) {
        awaiting_body = false;
        if (c == '{') {
          pending_push = true;
        } else {
          braceless = true;
          stmt_parens = 0;
        }
      }
      if (next_call < inv_calls.size() && inv_calls[next_call].first == pos) {
        if ((!loop_bodies.empty() || braceless) && !reported_this_line) {
          report(findings, file, i, "loop-inverse",
                 "'" + inv_calls[next_call].second +
                     "' called inside a loop: hoist the denominators and "
                     "invert once with batch_inverse (numeric/batchinv.hpp) "
                     "— Montgomery's trick trades n inversions for 1 "
                     "inversion + 3(n-1) multiplications");
          reported_this_line = true;  // one finding per line is enough
        }
        ++next_call;
      }
      if (in_header) {
        if (c == '(') ++header_parens;
        if (c == ')' && --header_parens == 0) {
          in_header = false;
          awaiting_body = true;
        }
        continue;
      }
      if (std::find(header_opens.begin(), header_opens.end(), pos) !=
          header_opens.end()) {
        in_header = true;
        header_parens = 1;  // this '(' itself
        continue;
      }
      if (braceless) {
        if (c == '(') ++stmt_parens;
        if (c == ')') --stmt_parens;
        if (c == ';' && stmt_parens == 0) braceless = false;
        continue;
      }
      if (c == '{') {
        ++depth;
        if (pending_push) {
          loop_bodies.push_back(depth);
          pending_push = false;
        }
      } else if (c == '}') {
        if (!loop_bodies.empty() && loop_bodies.back() == depth)
          loop_bodies.pop_back();
        --depth;
      }
    }
  }
}

// ---- rule: include-hygiene -------------------------------------------------

void rule_include_hygiene(const SourceFile& file,
                          std::vector<Finding>& findings) {
  static const std::regex updir_re(R"(#\s*include\s*"\.\./)");
  static const std::regex angled_project_re(
      R"(#\s*include\s*<(?:crypto|dmw|exp|mech|net|numeric|poly|support)/)");
  static const std::regex iostream_re(R"(#\s*include\s*<iostream>)");
  static const std::regex cassert_re(
      R"(#\s*include\s*(?:<cassert>|<assert\.h>))");
  static const std::regex intrinsics_re(
      R"(#\s*include\s*<(?:immintrin|x86intrin|x86gprintrin|emmintrin|xmmintrin|pmmintrin|smmintrin|tmmintrin|nmmintrin|wmmintrin|ammintrin|avxintrin|avx2intrin|arm_neon|arm_sve|arm_acle|arm_fp16)\.h>)");
  // numeric/simd.hpp is the one sanctioned home for vendor intrinsics: it
  // wraps them behind runtime dispatch with a portable fallback, so every
  // other file stays ISA-neutral and the scalar ablation stays honest.
  const bool is_simd_home = has_adjacent(file, "numeric", "simd.hpp");
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    std::string lead = file.lines[i].code;
    lead.erase(0, lead.find_first_not_of(" \t"));
    // Quoted include paths live inside string literals, blanked in the code
    // view; scan the raw line, but only on preprocessor lines so prose in
    // comments cannot fire.
    const std::string& code =
        lead.starts_with("#") ? file.lines[i].raw : file.lines[i].code;
    if (code.find("#pragma once") != std::string::npos)
      has_pragma_once = true;
    if (std::regex_search(code, updir_re))
      report(findings, file, i, "include-hygiene",
             "\"../\" include path: include project headers rooted at src/ "
             "(e.g. \"crypto/aead.hpp\")");
    if (std::regex_search(code, angled_project_re))
      report(findings, file, i, "include-hygiene",
             "project header included with <>: use quotes so the include "
             "resolves against src/, not the system path");
    if (std::regex_search(code, cassert_re))
      report(findings, file, i, "include-hygiene",
             "<cassert> include: invariants go through DMW_CHECK "
             "(support/check.hpp)");
    if (!is_simd_home && std::regex_search(code, intrinsics_re))
      report(findings, file, i, "include-hygiene",
             "vendor intrinsic header outside src/numeric/simd.hpp: SIMD "
             "kernels are confined there behind runtime dispatch with a "
             "portable fallback (numeric/simd.hpp header contract)");
    if (has_component(file, "src") && std::regex_search(code, iostream_re))
      report(findings, file, i, "include-hygiene",
             "<iostream> in the library: static-init cost in every TU and "
             "an unauditable sink; use the logger or take an ostream&");
  }
  if (is_header(file) && !has_pragma_once && !file.lines.empty()) {
    report(findings, file, 0, "include-hygiene",
           "header without #pragma once");
  }
}

// ---- rule: raw-clock -------------------------------------------------------

/// Time flows through exactly two sanctioned sources: Stopwatch
/// (support/stopwatch.hpp) and the dmwtrace run-relative clock
/// (support/trace.hpp), which the exporters, the logger's timestamps and
/// the RunReport determinism gate all share. A direct std::chrono (or libc)
/// clock read anywhere else is a second, unsynchronized time source the
/// observability layer cannot see — and, under ClockMode::kLogical, a
/// nondeterminism leak into otherwise bit-identical reports. Differential
/// fixtures carry `dmwlint:allow(raw-clock)`.
void rule_raw_clock(const SourceFile& file, std::vector<Finding>& findings) {
  if (has_adjacent(file, "support", "stopwatch.hpp") ||
      has_adjacent(file, "support", "trace.hpp") ||
      has_adjacent(file, "support", "trace.cpp"))
    return;
  static const std::regex clock_re(
      R"(\bstd::chrono\b|\b(?:steady_clock|system_clock|high_resolution_clock)\b|\b(?:clock_gettime|gettimeofday|timespec_get)\s*\()");
  static const std::regex chrono_include_re(R"(#\s*include\s*<chrono>)");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    std::string lead = file.lines[i].code;
    lead.erase(0, lead.find_first_not_of(" \t"));
    if (lead.starts_with("#")) {
      if (std::regex_search(file.lines[i].raw, chrono_include_re)) {
        report(findings, file, i, "raw-clock",
               "<chrono> include outside the sanctioned clocks: take time "
               "from Stopwatch (support/stopwatch.hpp) or the dmwtrace "
               "clock (support/trace.hpp)");
      }
      continue;
    }
    const std::string& code = file.lines[i].code;
    for (std::sregex_iterator it(code.begin(), code.end(), clock_re), end;
         it != end; ++it) {
      report(findings, file, i, "raw-clock",
             "raw clock read '" + it->str() +
                 "': take time from Stopwatch (support/stopwatch.hpp) or "
                 "the dmwtrace run-relative clock (support/trace.hpp) so "
                 "exports and logs share one time source");
    }
  }
}

// ---- rule: guarded-member --------------------------------------------------

/// A class that declares a mutex has a locking discipline, and the
/// capability analysis can only check what is written down. Every other
/// member of such a class (src/ and tools/) must be DMW_GUARDED_BY /
/// DMW_PT_GUARDED_BY-annotated, be of an exempt kind (const with no pointer
/// declarator, static/constexpr, std::atomic, or the lock/role types
/// themselves), or carry `dmwlint:allow(guarded-member)` stating the
/// discipline that protects it (epoch-frozen, driver-only, per-worker
/// slot). This keeps new members honest even on GCC builds where the
/// annotations compile to nothing.
///
/// Heuristics, over the comment/string-blanked code view: class bodies are
/// tracked by brace depth; a member statement is a `;`-terminated
/// statement at class-body depth that does not open a brace and whose
/// declarator tail is an identifier (function declarations end in `)` after
/// initializers/annotations are stripped).
struct ClassScope {
  int depth = 0;          ///< brace depth of the class body
  bool has_mutex = false;
  std::string name;
};

bool statement_is_exempt_member(const std::string& stmt) {
  static const std::regex annotated_re(
      R"(\bDMW_(?:PT_)?GUARDED_BY\s*\()");
  static const std::regex static_re(R"(\b(?:static|constexpr)\b)");
  static const std::regex lock_type_re(
      R"(^\s*(?:mutable\s+)?(?:dmw::)?(?:Mutex|CondVar|ThreadRole)\b)");
  static const std::regex std_sync_re(
      R"(^\s*(?:mutable\s+)?std::(?:atomic\b|atomic_(?:flag|bool|int)\b|(?:recursive_|shared_|timed_)?mutex\b|condition_variable\b))");
  static const std::regex const_re(R"(^\s*(?:mutable\s+)?const\b)");
  if (std::regex_search(stmt, annotated_re)) return true;
  if (std::regex_search(stmt, static_re)) return true;
  if (std::regex_search(stmt, lock_type_re)) return true;
  if (std::regex_search(stmt, std_sync_re)) return true;
  // A leading const with no pointer declarator is immutable after
  // construction (a pointer-to-const member is still a mutable pointer).
  if (std::regex_search(stmt, const_re) &&
      stmt.find('*') == std::string::npos)
    return true;
  return false;
}

/// Strip `;`, a trailing `= ...` / `{...}` initializer and trailing DMW_*
/// annotation calls, then decide: identifier tail = variable member,
/// `)` / `]` tail elsewhere = function or array-of-function weirdness.
/// Returns the member name, or "" when the statement is not a variable.
std::string member_variable_name(std::string stmt) {
  auto rstrip = [&] {
    while (!stmt.empty() &&
           std::isspace(static_cast<unsigned char>(stmt.back())))
      stmt.pop_back();
  };
  rstrip();
  if (!stmt.empty() && stmt.back() == ';') stmt.pop_back();
  static const std::regex init_re(R"(=\s*[^=;]*$)");
  stmt = std::regex_replace(stmt, init_re, "");
  // Brace initializer: drop one trailing balanced {...}.
  rstrip();
  if (!stmt.empty() && stmt.back() == '}') {
    int depth = 0;
    std::size_t i = stmt.size();
    while (i-- > 0) {
      if (stmt[i] == '}') ++depth;
      if (stmt[i] == '{' && --depth == 0) {
        stmt.erase(i);
        break;
      }
    }
  }
  // Trailing annotation macro calls (DMW_GUARDED_BY(...) etc.).
  static const std::regex annot_re(R"((?:\bDMW_[A-Z_]+\s*\([^()]*\)\s*)+$)");
  stmt = std::regex_replace(stmt, annot_re, "");
  rstrip();
  // Trailing array extent(s).
  while (!stmt.empty() && stmt.back() == ']') {
    const std::size_t open = stmt.rfind('[');
    if (open == std::string::npos) return "";
    stmt.erase(open);
    rstrip();
  }
  // Statements introduced by a declaration keyword (after any access-label
  // prefix) are types, aliases or friends — never data members.
  std::string lead = stmt;
  lead.erase(0, lead.find_first_not_of(" \t\n"));
  static const std::regex label_re(R"(^(?:public|private|protected)\s*:\s*)");
  lead = std::regex_replace(lead, label_re, "");
  static const std::regex lead_keyword_re(
      R"(^(?:(?:using|typedef|friend|enum|class|struct|union|template|static_assert|explicit|virtual|operator)\b|~))");
  if (std::regex_search(lead, lead_keyword_re)) return "";
  static const std::regex tail_re(R"(([A-Za-z_]\w*)\s*$)");
  std::smatch m;
  if (!std::regex_search(stmt, m, tail_re)) return "";
  const std::string name = m[1].str();
  // `foo)` tails are parameter names of multi-line function declarations;
  // require the previous character (if any) to not close a parameter list
  // and the statement to not be a lone keyword or function qualifier
  // (`... ) const;`, `... ) noexcept;`, `... ) override;`).
  const std::size_t before = static_cast<std::size_t>(m.position(1));
  if (before == 0) return "";  // a bare identifier is a statement, not a decl
  static const std::regex keyword_re(
      R"(^(?:using|typedef|friend|enum|class|struct|union|template|static_assert|public|private|protected|return|delete|goto|break|continue|case|if|else|for|while|do|switch|new|throw|try|catch|operator|const|noexcept|override|final|volatile|default)$)");
  if (std::regex_match(name, keyword_re)) return "";
  return name;
}

void rule_guarded_member(const SourceFile& file,
                         std::vector<Finding>& findings) {
  if (!has_component(file, "src") && !has_component(file, "tools")) return;
  static const std::regex class_head_re(R"(\b(?:class|struct)\b([^{;:]*))");
  static const std::regex enum_head_re(R"(\benum\s+(?:class|struct)\b)");
  static const std::regex name_re(R"(([A-Za-z_]\w*)\s*$)");
  static const std::regex mutex_decl_re(
      R"(^\s*(?:mutable\s+)?(?:(?:dmw::)?Mutex\b|std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b))");
  static const std::regex access_label_re(
      R"(^\s*(?:public|private|protected)\s*:\s*$)");

  int depth = 0;
  std::vector<ClassScope> scopes;
  // A member statement under assembly: starting line + accumulated code.
  std::size_t stmt_begin = 0;
  std::string stmt;
  bool in_stmt = false;

  struct Member {
    std::size_t line;
    std::string stmt;
    std::string name;
    std::size_t scope;  ///< index into scopes at collection time
  };
  std::vector<Member> members;

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    const int line_depth = depth;

    // Class-head detection: `class`/`struct` with its opening brace on the
    // same line (the codebase style). `enum class` is not a class scope.
    std::smatch head;
    const bool head_here = std::regex_search(code, head, class_head_re) &&
                           !std::regex_search(code, enum_head_re) &&
                           code.find('{') != std::string::npos &&
                           (code.find(';') == std::string::npos ||
                            code.find('{') < code.find(';'));

    // Member-statement assembly at the innermost class-body depth.
    const bool at_member_depth =
        !scopes.empty() && scopes.back().depth == line_depth && !head_here &&
        !std::regex_match(code, access_label_re);
    if (at_member_depth && file.lines[i].has_code) {
      if (!in_stmt) {
        stmt_begin = i;
        stmt.clear();
        in_stmt = true;
      }
      stmt += code;
      stmt += '\n';
      const bool opens_body = code.find('{') != std::string::npos ||
                              code.find('}') != std::string::npos;
      std::string trimmed = code;
      trimmed.erase(trimmed.find_last_not_of(" \t") + 1);
      if (trimmed.ends_with(";") && !opens_body) {
        if (std::regex_search(stmt, mutex_decl_re))
          scopes.back().has_mutex = true;
        const std::string name = member_variable_name(stmt);
        if (!name.empty())
          members.push_back(Member{stmt_begin, stmt, name,
                                   scopes.size() - 1});
        in_stmt = false;
      } else if (opens_body) {
        in_stmt = false;  // inline method / nested scope: not a member decl
      }
    } else {
      in_stmt = false;
    }

    // Brace tracking + scope pushes/pops.
    for (char c : code) {
      if (c == '{')
        ++depth;
      else if (c == '}')
        --depth;
    }
    if (head_here) {
      ClassScope scope;
      scope.depth = line_depth + 1;
      std::string before_brace = head[1].str();
      std::smatch nm;
      if (std::regex_search(before_brace, nm, name_re))
        scope.name = nm[1].str();
      scopes.push_back(scope);
    }
    while (!scopes.empty() && depth < scopes.back().depth) {
      // Class closed: emit findings for its unguarded members.
      const std::size_t closing = scopes.size() - 1;
      if (scopes[closing].has_mutex) {
        for (const Member& member : members) {
          if (member.scope != closing) continue;
          if (statement_is_exempt_member(member.stmt)) continue;
          report(findings, file, member.line, "guarded-member",
                 "class '" + scopes[closing].name + "' declares a mutex but "
                 "member '" + member.name + "' is neither DMW_GUARDED_BY-"
                 "annotated nor exempt (const/static/atomic/lock types): "
                 "annotate it, or state the discipline in a "
                 "dmwlint:allow(guarded-member) comment");
        }
      }
      std::erase_if(members, [closing](const Member& m) {
        return m.scope == closing;
      });
      scopes.pop_back();
    }
  }
}

// ---- rule: thread-id-sink --------------------------------------------------

/// The bit-identity contract: Outcomes, abort streams, transcripts and
/// RunReports are byte-identical across thread counts.
/// Its static form: no thread-identity value — std::this_thread::get_id(),
/// a ThreadPool worker index, the machine's hardware
/// concurrency — may flow into a transcript hash, an Outcome, or a
/// report/JSON field. Worker ids addressing per-worker accumulator slots
/// are fine (that is what current_worker_id() is for); worker ids *in the
/// output* are not. src/support is out of scope (the Chrome-trace exporter
/// legitimately labels per-worker lanes); tests and bench are free to
/// record hardware facts (bench_parallel reports hardware_concurrency by
/// design).
void rule_thread_id_sink(const SourceFile& file,
                         std::vector<Finding>& findings) {
  const bool in_src_or_tools =
      has_component(file, "src") || has_component(file, "tools");
  if (!in_src_or_tools) return;
  static const std::regex get_id_re(R"(\bthis_thread\s*::\s*get_id\b)");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (std::regex_search(file.lines[i].code, get_id_re)) {
      report(findings, file, i, "thread-id-sink",
             "std::this_thread::get_id(): OS thread ids are not stable "
             "across runs or thread counts — use "
             "ThreadPool::current_worker_id() for slot addressing, and "
             "keep any thread identity out of transcripts and reports");
    }
  }

  const bool protocol_visible = has_adjacent(file, "src", "dmw") ||
                                has_adjacent(file, "src", "net") ||
                                has_adjacent(file, "src", "exp") ||
                                has_adjacent(file, "src", "crypto");
  if (!protocol_visible) return;
  static const std::regex source_re(
      R"(\bcurrent_worker_id\s*\(|\bhardware_concurrency\s*\(|\bt_worker_id\b)");
  // Calls and constructions only — a bare type name in a signature is not a
  // data flow.
  static const std::regex sink_re(
      R"(\babsorb\s*\(|\bsha256[a-z_]*\s*\(|\bSha256\s*[({]|\bJsonWriter\s*[({]|\.key\s*\(|\.field\s*\(|\bwrite_scalar\s*\(|\bwrite_elem\s*\(|\bRunReport\s*[({]|\bOutcome\s*[({]|\bTranscript\s*[({])");
  // Anchor on the sink and assemble the statement forward (the sink call
  // syntactically wraps the value it serializes, so it comes first).
  constexpr std::size_t kMaxStatementLines = 6;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (!std::regex_search(file.lines[i].code, sink_re)) continue;
    std::string statement;
    std::size_t last = i;
    for (std::size_t j = i;
         j < file.lines.size() && j < i + kMaxStatementLines; ++j) {
      statement += file.lines[j].code;
      statement += '\n';
      last = j;
      if (file.lines[j].code.find(';') != std::string::npos) break;
    }
    if (std::regex_search(statement, source_re)) {
      report(findings, file, i, "thread-id-sink",
             "thread-identity value (worker id / hardware concurrency) in "
             "the same statement as a transcript/report sink: outputs "
             "must be bit-identical across thread counts");
      i = last;
    }
  }
}

// ---- rule: raw-send --------------------------------------------------------

/// Every SimNetwork::send()/publish() call names a message kind, and that
/// kind is the attribution key for the whole observability stack: the
/// per-phase traffic ledger (CommLedger cells), the per-kind net/* trace
/// counters, the Prometheus telemetry dump, and the closed-form
/// comm-conformance gates all group by registered kind
/// (net::register_comm_kind — proto::MsgKind and CentralMsg register theirs
/// at static init). A bare integer literal as the kind argument bypasses
/// that vocabulary: the ledger renders an anonymous "kind<N>" row no gate
/// can check and no reader can attribute. Library, tool, example and bench
/// code must pass a named kind (a MsgKind/CentralMsg cast or a named
/// constant); tests/ is exempt — transport tests drive arbitrary kinds
/// through the raw network on purpose. A deliberate raw tag elsewhere can
/// state its reason in an allow comment.
void rule_raw_send(const SourceFile& file, std::vector<Finding>& findings) {
  const bool in_scope =
      has_component(file, "src") || has_component(file, "tools") ||
      has_component(file, "examples") || has_component(file, "bench");
  if (!in_scope || has_component(file, "tests")) return;
  static const std::regex call_re(R"((?:\.|->)\s*(send|publish)\s*\()");
  static const std::regex literal_re(
      R"(^\s*(?:0[xX][0-9a-fA-F]+|[0-9]+)[uUlL]*\s*$)");
  constexpr std::size_t kMaxStatementLines = 8;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (std::sregex_iterator it(code.begin(), code.end(), call_re), end;
         it != end; ++it) {
      // send(from, to, kind, payload) vs publish(from, kind, payload).
      const std::size_t kind_index = (*it)[1].str() == "send" ? 2 : 1;
      // Walk the argument list from the call's opening paren, splitting on
      // top-level commas, across up to kMaxStatementLines lines.
      std::vector<std::string> arguments;
      std::string current;
      int depth = 1;
      bool closed = false;
      const std::size_t column =
          static_cast<std::size_t>(it->position(0)) +
          static_cast<std::size_t>(it->length(0));
      for (std::size_t j = i;
           j < file.lines.size() && j < i + kMaxStatementLines && !closed;
           ++j) {
        const std::string& text = file.lines[j].code;
        for (std::size_t k = (j == i ? column : 0); k < text.size(); ++k) {
          const char c = text[k];
          if (c == '(' || c == '[' || c == '{') {
            ++depth;
          } else if (c == ')' || c == ']' || c == '}') {
            if (--depth == 0) {
              closed = true;
              break;
            }
          } else if (c == ',' && depth == 1) {
            arguments.push_back(current);
            current.clear();
            continue;
          }
          current += c;
        }
        current += ' ';  // a line break inside an argument is whitespace
      }
      arguments.push_back(current);
      if (arguments.size() <= kind_index) continue;
      if (!std::regex_match(arguments[kind_index], literal_re)) continue;
      report(findings, file, i, "raw-send",
             "bare integer literal as the message kind in " +
                 (*it)[1].str() +
                 "(): kinds come from the registered vocabulary "
                 "(proto::MsgKind / CentralMsg, net::register_comm_kind) so "
                 "the traffic ledger, per-kind counters and comm-conformance "
                 "gates can attribute the message — name the kind, or "
                 "allowlist a deliberate raw tag");
    }
  }
}

// ---- rule: bad-allow -------------------------------------------------------

/// `dmwlint:allow(...)` directives naming a rule the linter does not know
/// are almost always typos — and a typo'd allow silently suppresses
/// nothing while looking like it suppresses something. Slug-shaped tokens
/// are validated against the rule list; non-slug tokens (`<rule>`
/// placeholders in prose) are ignored.
void rule_bad_allow(const SourceFile& file, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    for (const std::string& slug : allow_slugs(file.lines[i].comment)) {
      if (!slug_shaped(slug)) continue;
      const auto& names = rule_names();
      if (std::find(names.begin(), names.end(), slug) != names.end())
        continue;
      if (slug == "io-error") continue;
      report(findings, file, i, "bad-allow",
             "dmwlint:allow names unknown rule '" + slug +
                 "': the directive suppresses nothing (see --list-rules "
                 "for valid slugs)");
    }
  }
}

}  // namespace

// ---- public API ------------------------------------------------------------

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "naive-call",      "secret-sink", "ct-branch",      "banned-pattern",
      "raw-thread",      "loop-inverse", "include-hygiene", "raw-clock",
      "guarded-member",  "thread-id-sink", "raw-send",     "bad-allow"};
  return kNames;
}

std::vector<Finding> lint_file(const std::string& path,
                               std::string_view text) {
  const SourceFile file = parse_source(path, text);
  std::vector<Finding> findings;
  rule_naive_call(file, findings);
  rule_secret_sink(file, findings);
  rule_ct_branch(file, findings);
  rule_banned_pattern(file, findings);
  rule_raw_thread(file, findings);
  rule_loop_inverse(file, findings);
  rule_include_hygiene(file, findings);
  rule_raw_clock(file, findings);
  rule_guarded_member(file, findings);
  rule_thread_id_sink(file, findings);
  rule_raw_send(file, findings);
  rule_bad_allow(file, findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

std::vector<Finding> lint_path(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "io-error", "cannot read file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_file(path, buffer.str());
}

std::vector<Finding> lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const char* top : {"src", "tools", "examples", "tests", "bench"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory()) {
        const std::string name = it->path().filename().string();
        if (name == "fixtures" || name.starts_with("build") ||
            name.starts_with(".")) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Finding> findings;
  for (const auto& path : paths) {
    auto file_findings = lint_path(path);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::vector<Expectation> parse_expectations(std::string_view text) {
  const SourceFile file = parse_source("<expectations>", std::string(text));
  static const std::regex expect_re(R"(EXPECT:\s*([a-z-]+))");
  std::vector<Expectation> out;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& comment = file.lines[i].comment;
    for (std::sregex_iterator it(comment.begin(), comment.end(), expect_re),
         end;
         it != end; ++it) {
      out.push_back(Expectation{i + 1, (*it)[1].str()});
    }
  }
  return out;
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace dmwlint
