// Strict, bounded parsing of numbers from text: the one parser behind CLI
// flags, manifest keys, `NAME:N` model specs and PNML integer labels.
//
// The std::sto* family accepts leading whitespace and trailing junk ("12ab"
// is 12), wraps negative input for unsigned types ("-3" is a huge size_t),
// and reports malformed text by throwing from deep inside option parsing.
// These functions accept exactly one number and nothing else, check it
// against the caller's bounds, and throw one of two exception types the
// callers turn into their own error message:
//   * std::invalid_argument — the text is not a number at all;
//   * std::out_of_range     — it is one, but outside [lo, hi].
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace gpo::util {

namespace detail {

template <typename T>
[[noreturn]] void throw_out_of_range(std::string_view text, T lo, T hi) {
  std::ostringstream msg;
  msg << "'" << text << "' is out of range [" << lo << ", " << hi << "]";
  throw std::out_of_range(msg.str());
}

[[noreturn]] inline void throw_not_a_number(std::string_view text,
                                            const char* kind) {
  throw std::invalid_argument("'" + std::string(text) + "' is not " + kind);
}

}  // namespace detail

/// Parses all of `text` — an optional '+' or '-' followed by decimal
/// digits — as an integer in [lo, hi].
template <typename T>
[[nodiscard]] T parse_int(std::string_view text,
                          T lo = std::numeric_limits<T>::min(),
                          T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>);
  std::string_view digits = text;
  const bool negative = !digits.empty() && digits.front() == '-';
  if (!digits.empty() && (digits.front() == '+' || negative))
    digits.remove_prefix(1);
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      }))
    detail::throw_not_a_number(text, "an integer");
  T value{};
  if constexpr (std::is_unsigned_v<T>) {
    // from_chars rejects a sign on unsigned types; "-0" is still zero.
    if (negative && digits.find_first_not_of('0') != std::string_view::npos)
      detail::throw_out_of_range(text, lo, hi);
  } else if (negative) {
    digits = text;  // from_chars parses the '-' itself
  }
  auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec == std::errc::result_out_of_range)
    detail::throw_out_of_range(text, lo, hi);
  if (ec != std::errc() || end != digits.data() + digits.size())
    detail::throw_not_a_number(text, "an integer");
  if (value < lo || value > hi) detail::throw_out_of_range(text, lo, hi);
  return value;
}

/// Parses all of `text` as a decimal floating-point number (or "inf") in
/// [lo, hi]. NaN and surrounding whitespace are rejected.
[[nodiscard]] inline double parse_double(
    std::string_view text, double lo = -std::numeric_limits<double>::infinity(),
    double hi = std::numeric_limits<double>::infinity()) {
  const std::string s(text);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front())) != 0)
    detail::throw_not_a_number(text, "a number");
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || std::isnan(value))
    detail::throw_not_a_number(text, "a number");
  if (value < lo || value > hi) detail::throw_out_of_range(text, lo, hi);
  return value;
}

/// A command-line flag's value: `parse(text)`, with `parse` one of the
/// functions above. Malformed or out-of-range text is a usage error:
/// "<flag>: <reason>" on stderr and exit status 2.
template <typename Parse>
auto parse_flag(std::string_view flag, const std::string& text, Parse parse) {
  try {
    return parse(text);
  } catch (const std::exception& e) {
    std::cerr << flag << ": " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace gpo::util
