// Small string utilities used across the toolchain and the harness.
#ifndef WRLTRACE_SUPPORT_STRINGS_H_
#define WRLTRACE_SUPPORT_STRINGS_H_

#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wrl {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// 0x%08x rendering of a 32-bit value; the universal notation for addresses.
std::string Hex32(uint32_t value);

// Splits on any character in `separators`; empty fields are dropped.
std::vector<std::string_view> SplitFields(std::string_view text, std::string_view separators);

// Removes leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

// True if `text` begins with `prefix`.
bool HasPrefix(std::string_view text, std::string_view prefix);

// Parses a decimal or 0x-prefixed hexadecimal integer (optionally negative).
// Throws wrl::Error when `text` is not a well-formed number.
int64_t ParseInt(std::string_view text);

// Parses a command-line count: the whole of `text` is decimal digits (no
// sign, no blanks) whose value fits in `value`.  Returns false, leaving
// `value` unchanged, for anything else.
template <typename T>
bool ParseDecimal(std::string_view text, T& value) {
  static_assert(std::is_unsigned_v<T>, "counts are unsigned");
  T parsed = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  value = parsed;
  return true;
}

// Parses a real number: the whole of `text` is a finite number in
// [0, max], so every conversion it feeds is defined.  Returns false,
// leaving `value` unchanged, for anything else.
bool ParseBoundedReal(std::string_view text, double max, double& value);

}  // namespace wrl

#endif  // WRLTRACE_SUPPORT_STRINGS_H_
