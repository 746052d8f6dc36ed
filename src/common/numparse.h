// Whole-string number parsers: the one grammar for every number read
// from text (CLI flags, spec fields, CTS_* knobs).
//
// A number is decimal digits with an optional leading '-' (signed
// types only); a double may also carry a fraction and an exponent
// ("0.25", "1e-05", "1.23456789e+11", as printf's %g writes them) and
// must be finite. The whole string must be the number: no leading or
// trailing space, no leading '+', no hex, no "inf" or "nan", nothing
// outside the type's range, and not the empty string. Each parser
// returns nullopt for anything else.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace cts {

namespace numparse_internal {

template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace numparse_internal

inline std::optional<double> ParseDouble(std::string_view text) {
  const std::optional<double> v =
      numparse_internal::ParseWhole<double>(text);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

inline std::optional<int> ParseInt(std::string_view text) {
  return numparse_internal::ParseWhole<int>(text);
}

inline std::optional<std::uint64_t> ParseU64(std::string_view text) {
  return numparse_internal::ParseWhole<std::uint64_t>(text);
}

}  // namespace cts
