// Minimal JSON emission and parsing for machine-readable run reports.
//
// The observability layer (src/stats) and the experiment harness write
// their reports through JsonWriter: a streaming writer with an explicit
// BeginObject/Key/Value protocol that guarantees well-formed output
// (comma placement, string escaping, stable key order is the caller's
// choice).  ParseJson is the matching reader — just enough of RFC 8259
// to round-trip our own reports in tests and tooling; it is not a
// general-purpose validating parser.
#ifndef WRLTRACE_SUPPORT_JSON_H_
#define WRLTRACE_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wrl {

// Streaming JSON writer.  Misuse (a value where a key is required, unbalanced
// End calls) throws wrl::InternalError via WRL_CHECK.
class JsonWriter {
 public:
  // `indent` > 0 pretty-prints with that many spaces per level; 0 emits
  // compact single-line JSON.
  explicit JsonWriter(unsigned indent = 2) : indent_(indent) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) { return Value(std::string_view(value)); }
  JsonWriter& Value(bool value);
  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(unsigned value) { return Value(static_cast<uint64_t>(value)); }
  JsonWriter& Null();

  // Key/value in one call, for the common object-member case.
  template <typename T>
  JsonWriter& KV(std::string_view key, T&& value) {
    Key(key);
    return Value(std::forward<T>(value));
  }

  // True once the outermost container is closed.
  bool Done() const { return started_ && stack_.empty(); }
  // Returns the document; requires Done().
  std::string TakeString();

 private:
  enum class Frame : uint8_t { kObject, kArray };

  void BeforeValue();  // Comma/newline bookkeeping shared by all emitters.
  void NewlineIndent(size_t depth);
  void AppendEscaped(std::string_view text);

  unsigned indent_;
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_members_;
  bool key_pending_ = false;
  bool started_ = false;
};

// A parsed JSON document.  Numbers are kept as double (adequate for our
// counter magnitudes in reports) alongside the exact source text.
struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;  // String payload (unescaped).
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // Source order.

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // Like Find but throws wrl::Error when the member is missing.
  const JsonValue& At(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
};

// The deepest nesting of arrays and objects ParseJson accepts: far past
// any document the repository writes, and shallow enough that a hostile
// one (an archive's identity metadata is read with ParseJson) fails with a
// diagnostic instead of overflowing the stack.
inline constexpr int kMaxJsonDepth = 64;

// Parses one JSON document; trailing non-whitespace, malformed input or
// nesting deeper than kMaxJsonDepth throws wrl::Error with a
// position-annotated message.
JsonValue ParseJson(std::string_view text);

}  // namespace wrl

#endif  // WRLTRACE_SUPPORT_JSON_H_
