#include "support/strings.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"

namespace wrl {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int needed = vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args);
  return out;
}

std::string Hex32(uint32_t value) { return StrFormat("0x%08x", value); }

std::vector<std::string_view> SplitFields(std::string_view text, std::string_view separators) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find_first_of(separators, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    if (end > start) {
      fields.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return fields;
}

std::string_view StripWhitespace(std::string_view text) {
  const char* kSpace = " \t\r\n";
  size_t first = text.find_first_not_of(kSpace);
  if (first == std::string_view::npos) {
    return {};
  }
  size_t last = text.find_last_not_of(kSpace);
  return text.substr(first, last - first + 1);
}

bool HasPrefix(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

int64_t ParseInt(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) {
    throw Error("empty integer literal");
  }
  bool negative = false;
  if (text.front() == '-') {
    negative = true;
    text.remove_prefix(1);
  } else if (text.front() == '+') {
    text.remove_prefix(1);
  }
  if (text.empty()) {
    throw Error("malformed integer literal");
  }
  int base = 10;
  if (HasPrefix(text, "0x") || HasPrefix(text, "0X")) {
    base = 16;
    text.remove_prefix(2);
    if (text.empty()) {
      throw Error("malformed hexadecimal literal");
    }
  }
  int64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      throw Error(StrFormat("bad digit '%c' in integer literal", c));
    }
    if (digit >= base) {
      throw Error(StrFormat("digit '%c' out of range for base %d", c, base));
    }
    value = value * base + digit;
    if (value > (int64_t{1} << 40)) {
      throw Error("integer literal out of range");
    }
  }
  return negative ? -value : value;
}

bool ParseBoundedReal(std::string_view text, double max, double& value) {
  double parsed = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || !std::isfinite(parsed) || parsed < 0 || parsed > max) {
    return false;
  }
  value = parsed;
  return true;
}

}  // namespace wrl
