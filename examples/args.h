// Positional arguments of the example programs. Every number goes
// through common/numparse.h's whole-string grammar, and a malformed or
// out-of-range argument prints the program's usage line to stderr and
// exits 2 instead of running on a default or aborting mid-run.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "common/numparse.h"

namespace cts::examples {

// Prints `why` and the usage line to stderr, then exits 2.
[[noreturn]] inline void ExitUsage(const char* usage, const std::string& why) {
  std::cerr << why << "\nusage: " << usage << "\n";
  std::exit(2);
}

// argv[index] read by `parse` (ParseInt, ParseU64 or ParseDouble), or
// `fallback` when the program got fewer arguments.
template <typename T>
T Positional(int argc, char** argv, int index, T fallback,
             std::optional<T> (*parse)(std::string_view),
             const char* usage) {
  if (index >= argc) return fallback;
  const std::optional<T> value = parse(argv[index]);
  if (!value) {
    ExitUsage(usage, std::string("not a number: '") + argv[index] + "'");
  }
  return *value;
}

}  // namespace cts::examples
