// MessagePack encoder/decoder.
//
// The paper serializes each group of B training examples into "a single
// msgpack payload ... a compact, binary serialization format that is both
// fast and space-efficient" (§4.1). This is a from-scratch implementation of
// the MessagePack wire specification covering the types the batch codec and
// the tests use: nil, bool, all int widths (positive/negative fixint,
// uint8..64, int8..64), float32/64, str (fixstr/str8/16/32),
// bin (bin8/16/32), array (fixarray/16/32) and map (fixmap/16/32).
// Encoded bytes are interoperable with other MessagePack implementations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"

namespace emlio::msgpack {

class Value;

using Array = std::vector<Value>;
using Map = std::map<std::string, Value>;  // string keys only (wire allows any; we need str)
using Bin = std::vector<std::uint8_t>;

/// A decoded MessagePack value.
class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t u) : v_(u) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Bin b) : v_(std::move(b)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Map m) : v_(std::move(m)) {}

  bool is_nil() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const {
    return std::holds_alternative<std::int64_t>(v_) || std::holds_alternative<std::uint64_t>(v_);
  }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_bin() const { return std::holds_alternative<Bin>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_map() const { return std::holds_alternative<Map>(v_); }

  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;
  const Bin& as_bin() const;
  const Array& as_array() const;
  const Map& as_map() const;

  /// Map member access; throws on missing key / wrong type.
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Structural equality. Integers compare by numeric value regardless of
  /// whether they decoded into the signed or unsigned representation (the
  /// wire format does not distinguish non-negative int64 from uint64).
  bool operator==(const Value& other) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double, std::string, Bin, Array,
               Map>
      v_;
};

/// Streaming encoder writing MessagePack bytes into a ByteBuffer.
class Encoder {
 public:
  explicit Encoder(ByteBuffer& out) : out_(&out) {}

  void pack_nil();
  void pack_bool(bool b);
  void pack_int(std::int64_t v);
  void pack_uint(std::uint64_t v);
  void pack_double(double v);
  void pack_string(std::string_view s);
  /// bin family — used for raw sample bytes; zero-copy on the input side.
  void pack_bin(std::span<const std::uint8_t> bytes);
  /// Just the bin header for `n` bytes; the caller supplies the bytes (the
  /// batch codec splices large samples in by reference this way).
  void pack_bin_header(std::size_t n);
  /// Write an array header; caller then packs `n` elements.
  void pack_array_header(std::size_t n);
  /// Write a map header; caller then packs `n` key/value pairs.
  void pack_map_header(std::size_t n);

  /// Pack a whole Value tree.
  void pack(const Value& v);

 private:
  ByteBuffer* out_;
};

/// Streaming decoder over a byte span.
///
/// Two access styles share the cursor: next() builds an owning Value tree
/// (convenient, copies strings/bins), while the typed next_* accessors below
/// read one value each WITHOUT materializing anything — string/bin results
/// are views into the input buffer. The batch codec uses the typed path so
/// sample payloads decode as zero-copy slices of the received message.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> bytes) : reader_(bytes) {}

  /// Decode the next complete value. Throws std::runtime_error on malformed
  /// input and std::out_of_range on truncation.
  Value next();

  /// Typed streaming accessors: each consumes exactly one value and throws
  /// std::runtime_error when the wire type does not match (std::out_of_range
  /// on truncation). Integer accessors apply the same signed/unsigned
  /// coercion rules as Value::as_int/as_uint.
  bool next_bool();
  std::uint64_t next_uint();
  std::int64_t next_int();
  /// View into the input buffer — valid while the input lives.
  std::string_view next_string_view();
  /// View into the input buffer — valid while the input lives.
  std::span<const std::uint8_t> next_bin_view();
  /// Reads an array header; caller then reads that many elements.
  std::size_t next_array_header();
  /// Reads a map header; caller then reads that many key/value pairs.
  std::size_t next_map_header();
  /// Skip one complete value of any type (unknown-key tolerance).
  void skip_value();

  /// True when all input has been consumed.
  bool done() const { return reader_.exhausted(); }

  std::size_t position() const { return reader_.position(); }

 private:
  Value decode_value(int depth);
  void skip_value(int depth);
  template <bool AsUint>
  std::int64_t next_int_impl();
  ByteReader reader_;
};

/// One-shot helpers.
std::vector<std::uint8_t> encode(const Value& v);
Value decode(std::span<const std::uint8_t> bytes);

}  // namespace emlio::msgpack
