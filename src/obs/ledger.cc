#include "obs/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "obs/trace.h"

namespace cts::obs {

namespace {

void WriteStringMap(std::ostringstream& out,
                    const std::map<std::string, std::string>& m) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(k) << "\":\"" << JsonEscape(v) << '"';
  }
  out << '}';
}

// The JSON scanner behind every reader in this file: ledger lines,
// bench --json artifacts and Google Benchmark output. It reads
// strings (every JSON escape; unicode escapes ASCII only), numbers in
// the strict JSON grammar, objects and arrays — each member or element
// handed to a callback that consumes its value — and skips any value a
// reader does not use. Objects reject duplicate keys, and nesting is
// capped so hostile input fails cleanly instead of exhausting the
// stack.
class Scanner {
 public:
  explicit Scanner(const std::string& s) : s_(s) {}

  bool Fail(const std::string& why, std::string* error) {
    if (error != nullptr) {
      *error = why + " at offset " + std::to_string(i_);
    }
    return false;
  }

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\r' || s_[i_] == '\n')) {
      ++i_;
    }
  }

  bool Expect(char c, std::string* error) {
    SkipWs();
    if (i_ >= s_.size() || s_[i_] != c) {
      return Fail(std::string("expected '") + c + "'", error);
    }
    ++i_;
    return true;
  }

  bool Peek(char c) {
    SkipWs();
    return i_ < s_.size() && s_[i_] == c;
  }

  bool AtEnd() {
    SkipWs();
    return i_ >= s_.size();
  }

  std::size_t offset() const { return i_; }

  bool ParseString(std::string* out, std::string* error) {
    if (!Expect('"', error)) return false;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (i_ >= s_.size()) return Fail("dangling escape", error);
      const char e = s_[i_++];
      switch (e) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (i_ + 4 > s_.size()) return Fail("short \\u escape", error);
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape", error);
            }
          }
          // The writer only escapes control characters; keep the
          // reader equally narrow (no surrogate pairs).
          if (code > 0x7f) return Fail("non-ASCII \\u escape", error);
          *out += static_cast<char>(code);
          break;
        }
        default:
          return Fail("unknown escape", error);
      }
    }
    if (i_ >= s_.size()) return Fail("unterminated string", error);
    ++i_;  // closing quote
    return true;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, converted by strtod
  // (so decimal text round-trips the double it was printed from).
  bool ParseNumber(double* out, std::string* error) {
    SkipWs();
    const std::size_t start = i_;
    const auto digits = [&] {
      const std::size_t from = i_;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
      return i_ > from;
    };
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (i_ < s_.size() && s_[i_] == '0') {
      ++i_;
    } else if (!digits()) {
      return Fail("expected a number", error);
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!digits()) return Fail("bad fraction", error);
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return Fail("bad exponent", error);
    }
    char* end = nullptr;
    // repo-lint: allow(numparse): the scan above admits only the JSON
    // number grammar, and strtod converts exactly what it admitted.
    *out = std::strtod(s_.c_str() + start, &end);
    if (end != s_.c_str() + i_) return Fail("bad number", error);
    if (!std::isfinite(*out)) return Fail("number out of range", error);
    return true;
  }

  // A number, or null read as NaN.
  bool ParseNumberOrNull(double* out, std::string* error) {
    if (PeekLiteral("null")) {
      i_ += 4;
      *out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    return ParseNumber(out, error);
  }

  // `open` element (',' element)* `close`; `element()` consumes each.
  bool ParseList(char open, char close, const std::function<bool()>& element,
                 std::string* error) {
    if (!Expect(open, error)) return false;
    if (++depth_ > kMaxDepth) return Fail("nesting too deep", error);
    if (!Peek(close)) {
      while (true) {
        if (!element()) return false;
        if (!Peek(',')) break;
        ++i_;
      }
    }
    --depth_;
    return Expect(close, error);
  }

  // Reads one object; `member(key)` must consume the key's value.
  bool ParseObject(const std::function<bool(const std::string&)>& member,
                   std::string* error) {
    std::set<std::string> seen;
    return ParseList(
        '{', '}',
        [&] {
          std::string key;
          if (!ParseString(&key, error)) return false;
          if (!seen.insert(key).second) {
            return Fail("duplicate key '" + key + "'", error);
          }
          return Expect(':', error) && member(key);
        },
        error);
  }

  bool SkipValue(std::string* error) {
    SkipWs();
    if (i_ >= s_.size()) return Fail("expected a value", error);
    switch (s_[i_]) {
      case '"': {
        std::string ignored;
        return ParseString(&ignored, error);
      }
      case '{':
        return ParseObject(
            [&](const std::string&) { return SkipValue(error); }, error);
      case '[':
        return ParseList('[', ']', [&] { return SkipValue(error); }, error);
      default:
        // NaN and Infinity are how Google Benchmark spells a
        // non-finite counter.
        for (const char* word :
             {"true", "false", "null", "NaN", "Infinity", "-Infinity"}) {
          if (PeekLiteral(word)) {
            i_ += std::strlen(word);
            return true;
          }
        }
        double ignored = 0;
        return ParseNumber(&ignored, error);
    }
  }

  bool ParseStringMap(std::map<std::string, std::string>* out,
                      std::string* error) {
    out->clear();
    return ParseObject(
        [&](const std::string& key) {
          return ParseString(&(*out)[key], error);
        },
        error);
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool PeekLiteral(const char* word) {
    SkipWs();
    return s_.compare(i_, std::strlen(word), word) == 0;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  int depth_ = 0;
};

// One Google Benchmark run object -> its two timing values (seconds);
// aggregate rows (mean/median/stddev of repetitions) are skipped so
// the raw runs gate.
bool ReadGbenchRun(Scanner& sc, LedgerEntry* out, std::string* error) {
  std::string name, run_type, unit = "ns";
  double real = std::numeric_limits<double>::quiet_NaN();
  double cpu = real;
  const bool ok = sc.ParseObject(
      [&](const std::string& key) {
        if (key == "name") return sc.ParseString(&name, error);
        if (key == "run_type") return sc.ParseString(&run_type, error);
        if (key == "time_unit") return sc.ParseString(&unit, error);
        if (key == "real_time" || key == "cpu_time") {
          return sc.ParseNumber(key == "real_time" ? &real : &cpu, error);
        }
        return sc.SkipValue(error);
      },
      error);
  if (!ok) return false;
  if (run_type == "aggregate") return true;
  const double scale = unit == "ns"   ? 1e-9
                       : unit == "us" ? 1e-6
                       : unit == "ms" ? 1e-3
                       : unit == "s"  ? 1.0
                                      : 0.0;
  if (name.empty() || scale == 0) {
    return sc.Fail("malformed Google Benchmark entry '" + name + "'", error);
  }
  if (!std::isnan(real)) out->values[name + "/real_time_s"] = real * scale;
  if (!std::isnan(cpu)) out->values[name + "/cpu_time_s"] = cpu * scale;
  return true;
}

}  // namespace

std::uint64_t Fingerprint64(const std::string& s) {
  return FnvMix(kFnvOffset, s.data(), s.size());
}

std::string HexDigest(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string HexFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

const char* CodeVersion() {
#ifdef CTS_CODE_VERSION
  return CTS_CODE_VERSION;
#else
  return "unknown";
#endif
}

void DigestTimeline(const Timeline& tl, LedgerEntry& entry) {
  for (const auto& [key, samples] : tl.series()) {
    (void)samples;
    entry.timeline[key] = HexDigest(tl.SeriesDigest(key));
  }
}

std::string SerializeEntry(const LedgerEntry& entry) {
  std::ostringstream out;
  out << "{\"bench\":\"" << JsonEscape(entry.bench) << "\",\"run\":\""
      << JsonEscape(entry.run) << "\",\"fingerprint\":\""
      << JsonEscape(entry.fingerprint) << "\",\"code_version\":\""
      << JsonEscape(entry.code_version) << "\",\"axes\":";
  WriteStringMap(out, entry.axes);
  out << ",\"values\":{";
  bool first = true;
  for (const auto& [k, v] : entry.values) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(k) << "\":\"" << HexFloat(v) << '"';
  }
  out << "},\"timeline\":";
  WriteStringMap(out, entry.timeline);
  out << '}';
  return out.str();
}

bool ParseEntry(const std::string& line, LedgerEntry* out,
                std::string* error) {
  *out = LedgerEntry{};
  Scanner sc(line);
  int members = 0;
  const bool ok = sc.ParseObject(
      [&](const std::string& key) {
        ++members;
        if (key == "bench") return sc.ParseString(&out->bench, error);
        if (key == "run") return sc.ParseString(&out->run, error);
        if (key == "fingerprint") {
          return sc.ParseString(&out->fingerprint, error);
        }
        if (key == "code_version") {
          return sc.ParseString(&out->code_version, error);
        }
        if (key == "axes") return sc.ParseStringMap(&out->axes, error);
        if (key == "timeline") {
          return sc.ParseStringMap(&out->timeline, error);
        }
        if (key != "values") {
          return sc.Fail("unknown ledger key '" + key + "'", error);
        }
        return sc.ParseObject(
            [&](const std::string& k) {
              std::string v;
              if (!sc.ParseString(&v, error)) return false;
              char* end = nullptr;
              // repo-lint: allow(numparse): values are C hex floats
              // (HexFloat's "%a"), which strtod reads back exactly.
              const double d = std::strtod(v.c_str(), &end);
              if (end == v.c_str() || *end != '\0') {
                return sc.Fail("unparsable value for '" + k + "'", error);
              }
              out->values[k] = d;
              return true;
            },
            error);
      },
      error);
  if (!ok) return false;
  if (members == 0) return sc.Fail("empty ledger entry", error);
  if (!sc.AtEnd()) return sc.Fail("trailing content", error);
  return true;
}

bool ParseBenchJson(const std::string& content, LedgerEntry* out,
                    std::string* error) {
  *out = LedgerEntry{};
  Scanner sc(content);
  std::string bench;
  bool named = false;
  const auto number = [&](const std::string& key) {
    double v = 0;
    if (!sc.ParseNumberOrNull(&v, nullptr)) {
      return sc.Fail("value of \"" + key + "\" must be a number or null",
                     error);
    }
    if (!out->values.emplace(key, v).second) {
      return sc.Fail("duplicate key \"" + key + "\"", error);
    }
    return true;
  };
  const bool ok = sc.ParseObject(
      [&](const std::string& key) {
        if (key == "bench") {
          named = true;
          return sc.ParseString(&bench, nullptr) ||
                 sc.Fail("\"bench\" must be a string", error);
        }
        if (key != "metrics" && key != "timeline") return number(key);
        if (!sc.Peek('{')) {
          return sc.Fail("\"" + key + "\" must be a nested object", error);
        }
        return sc.ParseObject(
            [&](const std::string& nested) {
              return number(key + "/" + nested);
            },
            error);
      },
      error);
  if (!ok) return false;
  if (!sc.AtEnd()) return sc.Fail("trailing content", error);
  if (!named) return sc.Fail("missing \"bench\" key", error);
  out->bench = out->run = bench;  // one entry per bench, named by it
  out->fingerprint = HexDigest(Fingerprint64(bench));
  return true;
}

bool ParseGbenchJson(const std::string& content, LedgerEntry* out,
                     std::string* error) {
  *out = LedgerEntry{};
  Scanner sc(content);
  std::string executable = "bench";
  bool listed = false;
  const bool ok = sc.ParseObject(
      [&](const std::string& key) {
        if (key == "context") {
          return sc.ParseObject(
              [&](const std::string& field) {
                return field == "executable"
                           ? sc.ParseString(&executable, error)
                           : sc.SkipValue(error);
              },
              error);
        }
        if (key != "benchmarks") return sc.SkipValue(error);
        listed = true;
        return sc.ParseList(
            '[', ']', [&] { return ReadGbenchRun(sc, out, error); }, error);
      },
      error);
  if (!ok) return false;
  if (!sc.AtEnd()) return sc.Fail("trailing content", error);
  if (!listed) return sc.Fail("missing \"benchmarks\" list", error);
  out->bench = out->run =
      "gbench:" + executable.substr(executable.rfind('/') + 1);
  out->fingerprint = HexDigest(Fingerprint64(out->bench));
  return true;
}

bool AppendEntry(const std::string& path, const LedgerEntry& entry) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out << SerializeEntry(entry) << '\n';
  return static_cast<bool>(out);
}

std::vector<LedgerEntry> ReadLedger(const std::string& path,
                                    std::string* error, bool* artifact) {
  std::vector<LedgerEntry> entries;
  if (artifact != nullptr) *artifact = false;
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open ledger '" + path + "'";
    return entries;
  }
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string content = slurp.str();

  // The first object's keys name the format. A file with no object,
  // or whose first object breaks before naming its format, is
  // malformed, and the error says on which line.
  Scanner sc(content);
  if (sc.AtEnd()) {
    if (error != nullptr) *error = path + ": empty file";
    return entries;
  }
  bool gbench = false;
  bool ledger = false;
  std::string scan_error;
  const bool scanned = sc.ParseObject(
      [&](const std::string& key) {
        gbench = gbench || key == "benchmarks";
        ledger = ledger || key == "fingerprint";
        return sc.SkipValue(&scan_error);
      },
      &scan_error);
  if (!scanned && !gbench && !ledger) {
    if (error != nullptr) {
      const auto line = 1 + std::count(content.begin(),
                                       content.begin() + sc.offset(), '\n');
      *error = path + ":" + std::to_string(line) + ": " + scan_error;
    }
    return entries;
  }

  if (ledger && !gbench) {
    std::istringstream lines(content);
    std::string line;
    int lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.empty()) continue;
      LedgerEntry e;
      std::string perr;
      if (!ParseEntry(line, &e, &perr)) {
        if (error != nullptr) {
          *error = path + ":" + std::to_string(lineno) + ": " + perr;
        }
        return entries;
      }
      entries.push_back(std::move(e));
    }
    return entries;
  }
  LedgerEntry e;
  std::string perr;
  if (!(gbench ? ParseGbenchJson(content, &e, &perr)
               : ParseBenchJson(content, &e, &perr))) {
    if (error != nullptr) *error = path + ": " + perr;
    return entries;
  }
  if (artifact != nullptr) *artifact = true;
  entries.push_back(std::move(e));
  return entries;
}

}  // namespace cts::obs
