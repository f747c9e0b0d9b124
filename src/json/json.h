// Minimal JSON value, parser and serializer.
//
// Used to write the TFRecord shard index files (the paper's
// `mapping_shard_*.json`; ShardIndex::parse reads them without a tree), for
// testbed configuration and for benchmark output. This is a deliberate
// subset: UTF-8 strings are passed through verbatim, numbers are doubles or
// int64 and must convert in full, no comments, no trailing commas.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace emlio::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps keys sorted so serialization is deterministic.
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, int64, double, string, array or object.
class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws if not an object or key missing.
  const Value& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;
  /// Object member with fallback when the key is absent.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;

  /// Serialize. `indent` < 0 gives compact output; >= 0 pretty-prints.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> v_;
};

/// Parse a JSON document. Throws std::runtime_error with position info on
/// malformed input.
Value parse(std::string_view text);

/// True for a byte that continues a number token: a digit, '.', 'e', 'E',
/// '+' or '-'.
inline bool in_number(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

/// A cursor over JSON text, with the rules `parse` reads by: the same
/// whitespace, escapes, number tokens and nesting cap. A reader that fills
/// its own structures in one pass (tfrecord::ShardIndex::parse) steps
/// through the text with it instead of building a Value tree. Every error
/// throws std::runtime_error "json parse error at offset N: ...".
class Reader {
 public:
  /// Containers nested deeper than this fail: a value recurses once per
  /// level, so "[[[[..." would otherwise overflow the stack. Far beyond any
  /// shard index, config or bench output this project writes.
  static constexpr int kMaxDepth = 256;

  explicit Reader(std::string_view text) : text_(text) {}

  /// The value at the cursor. `depth` counts the containers around it (the
  /// document's root is 0), for kMaxDepth.
  Value value(int depth);
  /// The string token at the cursor, escapes decoded (\u to UTF-8, BMP only).
  std::string string();
  /// The number token at the cursor: an optional '-', then the run of bytes
  /// in_number() accepts. It must convert in full: an int64 when the run is
  /// all digits, else a double; "1-2", "1.2.3" or "1e5e5" is an error.
  Value number();
  /// Fail unless only whitespace is left.
  void finish();

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  /// The byte at the cursor; fails at the end of the text.
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  std::string_view text() const noexcept { return text_; }
  std::size_t offset() const noexcept { return pos_; }
  void seek(std::size_t offset) noexcept { pos_ = offset; }

  [[noreturn]] void fail(const std::string& msg) const;

 private:
  Value object(int depth);
  Value array(int depth);
  void literal(std::string_view lit);

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Serialize `v` to a file (pretty-printed).
void write_file(const std::string& path, const Value& v);

}  // namespace emlio::json
