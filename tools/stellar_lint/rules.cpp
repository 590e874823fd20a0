// Rule implementations for stellar-lint. Each rule is a token-level
// scanner; see lint.hpp for the catalogue and DESIGN.md §7 for rationale.

#include <algorithm>
#include <cctype>
#include <sstream>

#include "lint.hpp"

namespace stellar::lint {
namespace {

std::string trimCopy(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string lowerCopy(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string snippetAt(const SourceFile& file, int line) {
  if (line >= 1 && static_cast<std::size_t>(line) <= file.lines.size()) {
    return trimCopy(file.lines[static_cast<std::size_t>(line) - 1]);
  }
  return {};
}

Finding makeFinding(const SourceFile& file, int line, std::string rule,
                    std::string message) {
  Finding f;
  f.file = file.path;
  f.line = line;
  f.rule = std::move(rule);
  f.message = std::move(message);
  f.snippet = snippetAt(file, line);
  return f;
}

bool isPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}

bool isIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::Identifier && t.text == text;
}

/// Index of the token matching the opener at `open` (which must be "(" /
/// "{" / "["), or tokens.size() when unbalanced.
std::size_t matchingClose(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const char* close = o == "(" ? ")" : (o == "{" ? "}" : "]");
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (isPunct(toks[i], o.c_str())) ++depth;
    else if (isPunct(toks[i], close) && --depth == 0) return i;
  }
  return toks.size();
}

// ---- declaration harvesting ------------------------------------------------

/// Variable/member names declared with an unordered associative container
/// type: `std::unordered_map<K, V> name;` and friends.
void collectUnorderedNames(const SourceFile& file, std::set<std::string>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier) continue;
    const std::string& t = toks[i].text;
    if (t != "unordered_map" && t != "unordered_set" && t != "unordered_multimap" &&
        t != "unordered_multiset") {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || !isPunct(toks[j], "<")) continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (isPunct(toks[j], "<")) ++depth;
      else if (isPunct(toks[j], ">") && --depth == 0) { ++j; break; }
      else if (isPunct(toks[j], ";")) break;  // malformed / fwd-decl — bail
    }
    // Skip ref/pointer/cv noise between the type and the declared name.
    while (j < toks.size() &&
           (isPunct(toks[j], "&") || isPunct(toks[j], "*") || isIdent(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::Identifier) {
      out.insert(toks[j].text);
    }
  }
}

/// Names declared with a raw floating-point type (`double x`, `float y`).
void collectFloatNames(const SourceFile& file, std::set<std::string>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "double") && !isIdent(toks[i], "float")) continue;
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (isPunct(toks[j], "&") || isPunct(toks[j], "*") || isIdent(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::Identifier) {
      out.insert(toks[j].text);
    }
  }
}

// ---- determinism rules -----------------------------------------------------

void checkRandom(const SourceFile& file, std::vector<Finding>& out) {
  static const std::set<std::string> kTypes = {
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "random_shuffle"};
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier) continue;
    const std::string& t = toks[i].text;
    if (kTypes.count(t) != 0U) {
      out.push_back(makeFinding(file, toks[i].line, "DET-RANDOM",
                                "`" + t + "` is nondeterministic across platforms; use "
                                "util::rng (xoshiro256**) seeded from the run seed"));
      continue;
    }
    if ((t == "rand" || t == "srand") && i + 1 < toks.size() && isPunct(toks[i + 1], "(") &&
        (i == 0 || (!isPunct(toks[i - 1], ".") && !isPunct(toks[i - 1], "->")))) {
      out.push_back(makeFinding(file, toks[i].line, "DET-RANDOM",
                                "`" + t + "()` draws from hidden global state; use "
                                "util::rng seeded from the run seed"));
    }
  }
}

void checkClock(const SourceFile& file, std::vector<Finding>& out) {
  static const std::set<std::string> kClocks = {
      "system_clock",  "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",             "gmtime"};
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier) continue;
    const std::string& t = toks[i].text;
    if (kClocks.count(t) != 0U) {
      out.push_back(makeFinding(file, toks[i].line, "DET-CLOCK",
                                "wall/monotonic clock `" + t + "` in sim-critical code; "
                                "simulated time must come from sim::Engine::now()"));
      continue;
    }
    if (t == "time" && i + 1 < toks.size() && isPunct(toks[i + 1], "(")) {
      const bool stdQualified = i >= 2 && isPunct(toks[i - 1], "::") && isIdent(toks[i - 2], "std");
      const bool nullArg = i + 2 < toks.size() &&
                           (isIdent(toks[i + 2], "nullptr") || isIdent(toks[i + 2], "NULL") ||
                            (toks[i + 2].kind == Token::Kind::Number && toks[i + 2].text == "0"));
      if (stdQualified || nullArg) {
        out.push_back(makeFinding(file, toks[i].line, "DET-CLOCK",
                                  "`time()` reads the wall clock; simulated time must "
                                  "come from sim::Engine::now()"));
      }
    }
  }
}

void checkHash(const SourceFile& file, std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (isIdent(toks[i], "hash") && isPunct(toks[i - 1], "::") && isIdent(toks[i - 2], "std")) {
      out.push_back(makeFinding(file, toks[i].line, "DET-HASH",
                                "std::hash is implementation-defined and may vary across "
                                "platforms/ASLR; use util::hash64 (FNV-1a)"));
    }
  }
}

void checkSeedLiteral(const SourceFile& file, std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier) continue;
    const std::string lower = lowerCopy(toks[i].text);
    if (lower.size() < 4 || lower.compare(lower.size() - 4, 4, "seed") != 0) continue;
    // Flag seed *calls* with a bare numeric literal: `rng.seed(42)`,
    // `reseed(0xBEEF)`. Named defaults in options structs (`seed = 1`) are
    // the sanctioned single source of seeds and stay legal.
    if (isPunct(toks[i + 1], "(") && toks[i + 2].kind == Token::Kind::Number &&
        isPunct(toks[i + 3], ")")) {
      out.push_back(makeFinding(file, toks[i].line, "DET-SEED-LITERAL",
                                "ad-hoc literal seed; thread the run seed or the owning "
                                "options struct's seed instead"));
    }
  }
}

bool orderInsensitiveAt(const Suppressions& sup, int line) {
  return sup.orderInsensitiveLines.count(line) != 0U ||
         sup.orderInsensitiveLines.count(line - 1) != 0U;
}

void checkUnorderedIter(const SourceFile& file, const SourceFile* pairedHeader,
                        const Suppressions& sup, std::vector<Finding>& out) {
  std::set<std::string> unordered;
  std::set<std::string> floats;
  collectUnorderedNames(file, unordered);
  collectFloatNames(file, floats);
  if (pairedHeader != nullptr) {
    collectUnorderedNames(*pairedHeader, unordered);
    collectFloatNames(*pairedHeader, floats);
  }
  if (unordered.empty()) return;

  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = matchingClose(toks, open);
    if (close >= toks.size()) continue;
    // Range-for: a single ':' at paren depth 1.
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (isPunct(toks[j], "(")) ++depth;
      else if (isPunct(toks[j], ")")) --depth;
      else if (depth == 1 && isPunct(toks[j], ":")) { colon = j; break; }
    }
    if (colon == 0) continue;
    // The container expression's trailing identifier names the victim:
    // `node.flushInFlight` -> flushInFlight; a trailing call `x.items()`
    // names the method, which won't be in the declaration set.
    std::string name;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == Token::Kind::Identifier &&
          (j + 1 >= close || !isPunct(toks[j + 1], "("))) {
        name = toks[j].text;
      }
    }
    if (name.empty() || unordered.count(name) == 0U) continue;

    const int line = toks[i].line;
    const bool waived = orderInsensitiveAt(sup, line);
    if (!waived) {
      out.push_back(makeFinding(file, line, "DET-UNORDERED-ITER",
                                "iterating unordered container `" + name + "`: element "
                                "order is platform/ASLR-dependent. Use std::map, drain a "
                                "sorted snapshot, or mark `// lint: order-insensitive -- "
                                "<why the body commutes>`"));
    }
    // Float accumulation is non-associative, so it is order-sensitive even
    // when the loop is *claimed* order-insensitive — check either way.
    std::size_t bodyEnd = close;
    if (close + 1 < toks.size() && isPunct(toks[close + 1], "{")) {
      bodyEnd = matchingClose(toks, close + 1);
    } else {
      for (bodyEnd = close + 1; bodyEnd < toks.size() && !isPunct(toks[bodyEnd], ";");
           ++bodyEnd) {
      }
    }
    for (std::size_t j = close + 1; j < bodyEnd && j < toks.size(); ++j) {
      if ((isPunct(toks[j], "+=") || isPunct(toks[j], "-=")) && j > 0 &&
          toks[j - 1].kind == Token::Kind::Identifier &&
          floats.count(toks[j - 1].text) != 0U) {
        out.push_back(makeFinding(file, toks[j].line, "DET-FLOAT-ACCUM",
                                  "floating-point accumulation into `" + toks[j - 1].text +
                                  "` inside an unordered-container loop is order-"
                                  "sensitive (FP addition is not associative); accumulate "
                                  "into a sorted snapshot instead"));
      }
    }
  }
}

// ---- resilience rules ------------------------------------------------------

/// Lexical scope frame used by RES-JSON-AT: tracks try-coverage, the
/// enclosing function's name, and `contains("key")` guards seen so far.
struct Frame {
  bool isTry = false;
  std::string func;  ///< lowercased; empty when unknown
  std::set<std::string> containsKeys;
};

bool checkedFunctionName(const std::string& lowerName) {
  static const char* kMarkers[] = {"fromjson", "parse", "load",
                                   "replay",   "decode", "restore"};
  for (const char* m : kMarkers) {
    if (lowerName.find(m) != std::string::npos) return true;
  }
  return false;
}

void checkJsonAt(const SourceFile& file, std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  std::vector<Frame> frames;
  frames.push_back(Frame{});

  auto coveredByTry = [&]() {
    for (const Frame& f : frames) {
      if (f.isTry) return true;
    }
    return false;
  };
  auto coveredByFunc = [&]() {
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!it->func.empty()) return checkedFunctionName(it->func);
    }
    return false;
  };
  auto coveredByContains = [&](const std::string& key) {
    for (const Frame& f : frames) {
      if (f.containsKeys.count(key) != 0U) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (isPunct(t, "{")) {
      Frame frame;
      // `try {` (including function-try-blocks) opens a checked scope.
      if (i > 0 && isIdent(toks[i - 1], "try")) frame.isTry = true;
      // Function body? `name ( ... ) [const|noexcept|override|final]* {`
      std::size_t j = i;
      while (j > 0 && (isIdent(toks[j - 1], "const") || isIdent(toks[j - 1], "noexcept") ||
                       isIdent(toks[j - 1], "override") || isIdent(toks[j - 1], "final") ||
                       isIdent(toks[j - 1], "mutable"))) {
        --j;
      }
      if (j > 0 && isPunct(toks[j - 1], ")")) {
        int depth = 0;
        std::size_t k = j - 1;
        while (true) {
          if (isPunct(toks[k], ")")) ++depth;
          else if (isPunct(toks[k], "(") && --depth == 0) break;
          if (k == 0) break;
          --k;
        }
        if (k > 0 && toks[k - 1].kind == Token::Kind::Identifier) {
          static const std::set<std::string> kNotFuncs = {"if",    "for",   "while",
                                                          "switch", "catch", "return"};
          if (kNotFuncs.count(toks[k - 1].text) == 0U) {
            frame.func = lowerCopy(toks[k - 1].text);
          }
        }
      }
      frames.push_back(frame);
      continue;
    }
    if (isPunct(t, "}")) {
      if (frames.size() > 1) frames.pop_back();
      continue;
    }
    // Record `contains("key")` guards for the current scope chain.
    if (isIdent(t, "contains") && i + 2 < toks.size() && isPunct(toks[i + 1], "(") &&
        toks[i + 2].kind == Token::Kind::String) {
      frames.back().containsKeys.insert(toks[i + 2].text);
      continue;
    }
    // `.at("key")` / `->at("key")` with a single string argument.
    if (isIdent(t, "at") && i > 0 &&
        (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")) && i + 1 < toks.size() &&
        isPunct(toks[i + 1], "(")) {
      const std::size_t open = i + 1;
      const std::size_t close = matchingClose(toks, open);
      if (close >= toks.size()) continue;
      int depth = 0;
      bool multiArg = false;
      std::string key;
      for (std::size_t j = open; j < close; ++j) {
        if (isPunct(toks[j], "(") || isPunct(toks[j], "{") || isPunct(toks[j], "[")) ++depth;
        else if (isPunct(toks[j], ")") || isPunct(toks[j], "}") || isPunct(toks[j], "]")) --depth;
        else if (depth == 1 && isPunct(toks[j], ",")) multiArg = true;
        else if (depth == 1 && toks[j].kind == Token::Kind::String && key.empty()) {
          key = toks[j].text;
        }
      }
      if (multiArg || key.empty()) continue;  // dataframe .at("col", row) etc.
      if (coveredByTry() || coveredByFunc() || coveredByContains(key)) continue;
      out.push_back(makeFinding(file, t.line, "RES-JSON-AT",
                                ".at(\"" + key + "\") throws on absent keys; guard with "
                                "contains(), use a defaulted getter, or do the access "
                                "inside a parse/replay function's try scope"));
    }
  }
}

/// True when the tokens [begin, end) of a cast's template argument spell
/// an integral type: builtin integer words or <cstdint>/<cstddef> aliases,
/// optionally std::-qualified and cv-qualified, with no pointer or
/// reference. Aliases the lexer cannot resolve (FileId, T) do not count.
bool spellsIntegralType(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) {
  static const std::set<std::string> kIntegral = {
      "char",     "short",     "int",      "long",      "signed",   "unsigned",
      "size_t",   "ptrdiff_t", "intptr_t", "uintptr_t", "intmax_t", "uintmax_t",
      "int8_t",   "int16_t",   "int32_t",  "int64_t",   "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t"};
  bool sawType = false;
  for (std::size_t j = begin; j < end; ++j) {
    const Token& t = toks[j];
    if (t.kind == Token::Kind::Identifier) {
      if (t.text == "std" || t.text == "const" || t.text == "volatile") continue;
      if (kIntegral.count(t.text) == 0U) return false;
      sawType = true;
    } else if (!isPunct(t, "::")) {
      return false;
    }
  }
  return sawType;
}

void checkJsonInt(const SourceFile& file, std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "static_cast") || !isPunct(toks[i + 1], "<")) continue;
    std::size_t angle = i + 2;
    while (angle < toks.size() && !isPunct(toks[angle], ">") && !isPunct(toks[angle], ";")) {
      ++angle;
    }
    if (angle + 1 >= toks.size() || !isPunct(toks[angle], ">") ||
        !isPunct(toks[angle + 1], "(") || !spellsIntegralType(toks, i + 2, angle)) {
      continue;
    }
    // The operand calls the member asNumber()/getNumber(): `json.x()` or
    // `json->x()`, not a namespace function such as df::asNumber().
    const std::size_t close = matchingClose(toks, angle + 1);
    for (std::size_t j = angle + 2; j + 1 < close; ++j) {
      if ((isIdent(toks[j], "asNumber") || isIdent(toks[j], "getNumber")) &&
          (isPunct(toks[j - 1], ".") || isPunct(toks[j - 1], "->")) &&
          isPunct(toks[j + 1], "(")) {
        out.push_back(makeFinding(file, toks[i].line, "RES-JSON-INT",
                                  "casting a JSON number to an integer is undefined "
                                  "when it is out of range (-1 for unsigned, 1e300, "
                                  "NaN); read it with asInteger<T>() or "
                                  "getInteger<T>(key, fallback), which throw JsonError"));
        break;
      }
    }
  }
}

void checkCounterNames(const SourceFile& file, const RuleContext& ctx,
                       std::vector<Finding>& out) {
  if (!ctx.haveCatalogue) return;
  static const std::set<std::string> kCallees = {"counter", "gauge", "histogram",
                                                 "count", "noteCounter"};
  auto metricShaped = [](const std::string& s) {
    if (s.empty() || std::islower(static_cast<unsigned char>(s[0])) == 0) return false;
    bool sawDot = false;
    char prev = '\0';
    for (const char c : s) {
      const bool ok = (std::islower(static_cast<unsigned char>(c)) != 0) ||
                      (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '_' ||
                      c == '.';
      if (!ok) return false;
      if (c == '.') {
        if (prev == '.' || prev == '\0') return false;
        sawDot = true;
      }
      prev = c;
    }
    return sawDot && prev != '.';
  };

  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier || kCallees.count(toks[i].text) == 0U ||
        !isPunct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t open = i + 1;
    const std::size_t close = matchingClose(toks, open);
    if (close >= toks.size()) continue;
    // First-argument span only (both branches of a ternary are checked).
    int depth = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (isPunct(toks[j], "(") || isPunct(toks[j], "{") || isPunct(toks[j], "[")) ++depth;
      else if (isPunct(toks[j], ")") || isPunct(toks[j], "}") || isPunct(toks[j], "]")) --depth;
      else if (depth == 1 && isPunct(toks[j], ",")) break;
      else if (toks[j].kind == Token::Kind::String && metricShaped(toks[j].text) &&
               ctx.metricNames.count(toks[j].text) == 0U) {
        out.push_back(makeFinding(file, toks[j].line, "RES-COUNTER-NAME",
                                  "metric name \"" + toks[j].text + "\" is not in "
                                  "src/obs/metric_names.hpp; register it there (the one "
                                  "place) or fix the typo"));
      }
    }
  }
}

void checkThrowTask(const SourceFile& file, std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "submit") || !isPunct(toks[i + 1], "(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = matchingClose(toks, open);
    if (close >= toks.size()) continue;
    // A `throw` inside the submitted callable escapes onto the worker
    // thread unless a `try` inside the same argument span catches it.
    std::vector<bool> tryStack;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (isPunct(toks[j], "{")) {
        tryStack.push_back(j > 0 && isIdent(toks[j - 1], "try"));
      } else if (isPunct(toks[j], "}")) {
        if (!tryStack.empty()) tryStack.pop_back();
      } else if (isIdent(toks[j], "throw")) {
        const bool covered =
            std::find(tryStack.begin(), tryStack.end(), true) != tryStack.end();
        if (!covered) {
          out.push_back(makeFinding(file, toks[j].line, "RES-THROW-TASK",
                                    "naked `throw` inside a task submitted to the thread "
                                    "pool: the exception is swallowed into the future / "
                                    "terminates the worker; catch it inside the task and "
                                    "convert to a result value"));
        }
      }
    }
  }
}

/// The one file that opens files for append: util::appendJsonLine starts a
/// fresh line after a torn tail, which a raw append would glue onto.
constexpr const char* kAppendHome = "src/util/file.cpp";

void checkRawAppend(const SourceFile& file, std::vector<Finding>& out) {
  if (file.path == kAppendHome) return;
  const auto flag = [&](int line, const std::string& how) {
    out.push_back(makeFinding(file, line, "RES-RAW-APPEND",
                              how + " opens a file for append outside " + kAppendHome +
                                  "; append through util::appendJsonLine, which starts "
                                  "a fresh line after a torn tail"));
  };
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (isIdent(toks[i], "O_APPEND")) {
      flag(toks[i].line, "O_APPEND");
    } else if (isIdent(toks[i], "app") && i >= 2 && isPunct(toks[i - 1], "::") &&
               (isIdent(toks[i - 2], "ios") || isIdent(toks[i - 2], "ios_base"))) {
      flag(toks[i].line, "std::" + toks[i - 2].text + "::app");
    } else if (isIdent(toks[i], "fopen") && i + 1 < toks.size() &&
               isPunct(toks[i + 1], "(")) {
      // The mode is the second argument; an `a` mode appends.
      const std::size_t close = matchingClose(toks, i + 1);
      int depth = 0;
      std::size_t commas = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (isPunct(toks[j], "(") || isPunct(toks[j], "{") || isPunct(toks[j], "[")) {
          ++depth;
        } else if (isPunct(toks[j], ")") || isPunct(toks[j], "}") ||
                   isPunct(toks[j], "]")) {
          --depth;
        } else if (depth == 1 && isPunct(toks[j], ",")) {
          ++commas;
        } else if (depth == 1 && commas == 1 && toks[j].kind == Token::Kind::String &&
                   toks[j].text.rfind('a', 0) == 0) {
          flag(toks[j].line, "fopen mode \"" + toks[j].text + "\"");
          break;
        }
      }
    }
  }
}

}  // namespace

// ---- catalogue -------------------------------------------------------------

const std::vector<RuleInfo>& ruleCatalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"DET-RANDOM", "no rand()/std::random_device/<random> engines in sim-critical code"},
      {"DET-CLOCK", "no wall/monotonic clocks in sim-critical code; use sim::Engine::now()"},
      {"DET-HASH", "no std::hash in sim-critical code; use util::hash64 (FNV-1a)"},
      {"DET-UNORDERED-ITER",
       "no iteration over unordered containers in sim-critical code unless marked "
       "order-insensitive"},
      {"DET-FLOAT-ACCUM", "no floating-point accumulation inside unordered-container loops"},
      {"DET-SEED-LITERAL", "seeds come from options structs, not ad-hoc literals"},
      {"RES-JSON-AT", "Json .at(\"key\") must be guarded, defaulted, or inside a parse scope"},
      {"RES-JSON-INT",
       "no static_cast of Json asNumber()/getNumber() to an integer; use asInteger/getInteger"},
      {"RES-COUNTER-NAME", "metric names must be registered in src/obs/metric_names.hpp"},
      {"RES-THROW-TASK", "no naked throw across the ThreadPool task boundary"},
      {"RES-RAW-APPEND",
       "files are opened for append only in src/util/file.cpp (util::appendJsonLine)"},
      {"LINT-SUPPRESS", "suppressions must name a known rule and carry a justification"},
  };
  return kRules;
}

bool isKnownRule(const std::string& id) {
  for (const RuleInfo& r : ruleCatalogue()) {
    if (id == r.id) return true;
  }
  return false;
}

bool isSimCritical(const std::string& repoRelPath) {
  static const char* kDirs[] = {"src/sim/",    "src/pfs/",    "src/core/",
                                "src/faults/", "src/agents/", "src/service/"};
  for (const char* dir : kDirs) {
    if (repoRelPath.rfind(dir, 0) == 0) return true;
  }
  return false;
}

// ---- suppressions ----------------------------------------------------------

Suppressions parseSuppressions(const SourceFile& file) {
  Suppressions sup;
  for (const Comment& comment : file.comments) {
    const std::string text = trimCopy(comment.text);
    const bool fileWide = text.rfind("lint-file:", 0) == 0;
    const bool lineWide = text.rfind("lint:", 0) == 0;
    if (!fileWide && !lineWide) continue;

    const std::string body = trimCopy(text.substr(fileWide ? 10 : 5));
    auto malformed = [&](const std::string& why) {
      Finding f = makeFinding(file, comment.line, "LINT-SUPPRESS", why);
      sup.malformed.push_back(std::move(f));
    };

    // Split off the mandatory ` -- justification`.
    const std::size_t sep = body.find("--");
    const std::string head = trimCopy(sep == std::string::npos ? body : body.substr(0, sep));
    const std::string justification =
        sep == std::string::npos ? std::string{} : trimCopy(body.substr(sep + 2));

    if (lineWide && head == "order-insensitive") {
      if (justification.empty()) {
        malformed("order-insensitive marker without a justification; write "
                  "`// lint: order-insensitive -- <why the loop body commutes>`");
        continue;
      }
      sup.orderInsensitiveLines.insert(comment.line);
      continue;
    }

    if (head.rfind("suppress(", 0) == 0 && !head.empty() && head.back() == ')') {
      const std::string rule = trimCopy(head.substr(9, head.size() - 10));
      if (!isKnownRule(rule)) {
        malformed("suppression names unknown rule `" + rule + "`; see --list-rules");
        continue;
      }
      if (rule == "LINT-SUPPRESS") {
        malformed("LINT-SUPPRESS cannot be suppressed");
        continue;
      }
      if (justification.empty()) {
        malformed("suppression without a justification; write `suppress(" + rule +
                  ") -- <reason>`");
        continue;
      }
      if (fileWide) {
        sup.fileRules[rule] = justification;
      } else {
        sup.lineRules[rule].insert(comment.line);
        sup.lineJustifications[rule + ":" + std::to_string(comment.line)] = justification;
      }
      continue;
    }

    malformed("unrecognised lint directive `" + text + "`; expected "
              "`suppress(RULE-ID) -- reason` or `order-insensitive -- reason`");
  }
  return sup;
}

bool Suppressions::apply(Finding& finding) const {
  if (finding.rule == "LINT-SUPPRESS") return false;
  const auto fileIt = fileRules.find(finding.rule);
  if (fileIt != fileRules.end()) {
    finding.suppressed = true;
    finding.justification = fileIt->second;
    return true;
  }
  const auto lineIt = lineRules.find(finding.rule);
  if (lineIt != lineRules.end()) {
    // A suppression on line L covers findings on L (trailing comment) and
    // L+1 (comment on its own line above the code).
    for (const int offset : {0, -1}) {
      const int commentLine = finding.line + offset;
      if (lineIt->second.count(commentLine) != 0U) {
        finding.suppressed = true;
        const auto justIt =
            lineJustifications.find(finding.rule + ":" + std::to_string(commentLine));
        if (justIt != lineJustifications.end()) finding.justification = justIt->second;
        return true;
      }
    }
  }
  return false;
}

// ---- per-file driver -------------------------------------------------------

void checkFile(const SourceFile& file, const SourceFile* pairedHeader,
               const RuleContext& ctx, const Suppressions& suppressions,
               std::vector<Finding>& out) {
  if (isSimCritical(file.path)) {
    checkRandom(file, out);
    checkClock(file, out);
    checkHash(file, out);
    checkSeedLiteral(file, out);
    checkUnorderedIter(file, pairedHeader, suppressions, out);
  }
  checkJsonAt(file, out);
  checkJsonInt(file, out);
  checkCounterNames(file, ctx, out);
  checkThrowTask(file, out);
  checkRawAppend(file, out);
}

}  // namespace stellar::lint
