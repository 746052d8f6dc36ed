// Minimal --key=value flag parser shared by the CLI tools (ctsort,
// ctplan, ctcheck, ctstat). Unknown flags are fatal — a typo must not
// silently run the wrong experiment — and every tool gets the same
// surface: bare flags are booleans, `--key=value` everything else,
// CheckAllConsumed() after parsing; list-valued flags go through the
// helpers below the class. Every number is read with the parsers of
// common/numparse.h.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/numparse.h"

namespace cts::tools {

class Flags {
 public:
  Flags(int argc, char** argv, const std::string& program) {
    program_ = program;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        Fail("positional arguments are not supported: " + arg);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) {
    const std::string* given = Find(key);
    return given == nullptr ? fallback : *given;
  }

  // Numeric flags: an absent flag takes the fallback, but a value given
  // empty (--records=) is as bad a number as any other typo.
  std::uint64_t GetU64(const std::string& key, std::uint64_t fallback) {
    const std::string* given = Find(key);
    if (given == nullptr) return fallback;
    const std::optional<std::uint64_t> parsed = ParseU64(*given);
    if (!parsed) Fail("bad number '" + *given + "' in --" + key);
    return *parsed;
  }

  double GetDouble(const std::string& key, double fallback) {
    const std::string* given = Find(key);
    if (given == nullptr) return fallback;
    const std::optional<double> parsed = ParseDouble(*given);
    if (!parsed) Fail("bad number '" + *given + "' in --" + key);
    return *parsed;
  }

  // An enumerated flag: the value must name one of `choices`; anything
  // else is fatal and lists the accepted names.
  template <typename T>
  T GetChoice(const std::string& key, const std::string& fallback,
              std::initializer_list<std::pair<const char*, T>> choices) {
    const std::string v = Get(key, fallback);
    std::string names;
    for (const auto& [name, value] : choices) {
      if (v == name) return value;
      names += (names.empty() ? "" : " | ") + std::string(name);
    }
    Fail("unknown --" + key + "=" + v + " (" + names + ")");
  }

  // Boolean flags are passed bare (--scenario); "--scenario=yes" must
  // not silently mean false.
  bool GetBool(const std::string& key) {
    const std::string v = Get(key, "false");
    if (v == "true") return true;
    if (v == "false") return false;
    Fail("--" + key + " is a boolean flag — pass it bare, without a value");
  }

  void CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      if (!consumed_.count(key)) Fail("unknown flag --" + key);
    }
  }

  [[noreturn]] static void Fail(const std::string& msg) {
    std::cerr << program_ << ": " << msg
              << " (see header comment for usage)\n";
    std::exit(2);
  }

 private:
  // The flag's value, or nullptr when it was not passed.
  const std::string* Find(const std::string& key) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  inline static std::string program_ = "tool";
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

// A `sep`-separated flag value, field by field ("" -> none).
inline std::vector<std::string> Split(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(s);
  while (std::getline(in, field, sep)) out.push_back(field);
  return out;
}

// A comma-separated list of non-negative integers; a bad entry is
// fatal, reported as "bad <what> entry".
inline std::vector<int> ParseIntList(const std::string& s, const char* what) {
  std::vector<int> out;
  for (const std::string& f : Split(s)) {
    const std::optional<int> v = ParseInt(f);
    if (!v || *v < 0) {
      Flags::Fail(std::string("bad ") + what + " entry '" + f + "'");
    }
    out.push_back(*v);
  }
  return out;
}

// A --topologies list: "flat" names the single-rack default, which
// job::ParseTopology spells as the empty spec.
inline std::vector<std::string> ParseTopologyList(const std::string& s) {
  std::vector<std::string> out = Split(s);
  for (std::string& spec : out) {
    if (spec == "flat") spec.clear();
  }
  return out;
}

}  // namespace cts::tools
