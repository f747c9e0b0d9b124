#include "msgpack/msgpack.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace emlio::msgpack {

namespace {
constexpr int kMaxDepth = 64;  // guards against deeply nested hostile input
[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("msgpack: value is not ") + want);
}
[[noreturn]] void unsupported_tag(std::uint8_t tag) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02X", tag);
  throw std::runtime_error(std::string("msgpack: unsupported tag ") + buf);
}
}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(v_);
}

std::int64_t Value::as_int() const {
  if (std::holds_alternative<std::int64_t>(v_)) return std::get<std::int64_t>(v_);
  if (std::holds_alternative<std::uint64_t>(v_)) {
    auto u = std::get<std::uint64_t>(v_);
    if (u > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw std::runtime_error("msgpack: uint value out of int64 range");
    }
    return static_cast<std::int64_t>(u);
  }
  type_error("int");
}

std::uint64_t Value::as_uint() const {
  if (std::holds_alternative<std::uint64_t>(v_)) return std::get<std::uint64_t>(v_);
  if (std::holds_alternative<std::int64_t>(v_)) {
    auto i = std::get<std::int64_t>(v_);
    if (i < 0) throw std::runtime_error("msgpack: negative value as uint");
    return static_cast<std::uint64_t>(i);
  }
  type_error("uint");
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(v_);
  if (std::holds_alternative<std::int64_t>(v_))
    return static_cast<double>(std::get<std::int64_t>(v_));
  if (std::holds_alternative<std::uint64_t>(v_))
    return static_cast<double>(std::get<std::uint64_t>(v_));
  type_error("double");
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(v_);
}
const Bin& Value::as_bin() const {
  if (!is_bin()) type_error("bin");
  return std::get<Bin>(v_);
}
const Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(v_);
}
const Map& Value::as_map() const {
  if (!is_map()) type_error("map");
  return std::get<Map>(v_);
}

const Value& Value::at(const std::string& key) const {
  const auto& m = as_map();
  auto it = m.find(key);
  if (it == m.end()) throw std::runtime_error("msgpack: missing key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_map() && as_map().count(key) != 0;
}

bool Value::operator==(const Value& other) const {
  if (is_int() && other.is_int()) {
    // Compare numerically across the int64/uint64 representations.
    bool a_neg = std::holds_alternative<std::int64_t>(v_) && std::get<std::int64_t>(v_) < 0;
    bool b_neg = std::holds_alternative<std::int64_t>(other.v_) &&
                 std::get<std::int64_t>(other.v_) < 0;
    if (a_neg != b_neg) return false;
    if (a_neg) return std::get<std::int64_t>(v_) == std::get<std::int64_t>(other.v_);
    return as_uint() == other.as_uint();
  }
  return v_ == other.v_;
}

// ---------------------------------------------------------------- encoder

template <typename Out>
void BasicEncoder<Out>::pack_nil() { out_->push_u8(0xC0); }

template <typename Out>
void BasicEncoder<Out>::pack_bool(bool b) { out_->push_u8(b ? 0xC3 : 0xC2); }

template <typename Out>
void BasicEncoder<Out>::pack_uint(std::uint64_t v) {
  if (v < 0x80u) {
    out_->push_u8(static_cast<std::uint8_t>(v));  // positive fixint
  } else if (v <= 0xFFu) {
    out_->push_u8(0xCC);
    out_->push_u8(static_cast<std::uint8_t>(v));
  } else if (v <= 0xFFFFu) {
    out_->push_u8(0xCD);
    out_->push_u16be(static_cast<std::uint16_t>(v));
  } else if (v <= 0xFFFFFFFFu) {
    out_->push_u8(0xCE);
    out_->push_u32be(static_cast<std::uint32_t>(v));
  } else {
    out_->push_u8(0xCF);
    out_->push_u64be(v);
  }
}

template <typename Out>
void BasicEncoder<Out>::pack_int(std::int64_t v) {
  if (v >= 0) {
    pack_uint(static_cast<std::uint64_t>(v));
    return;
  }
  if (v >= -32) {
    out_->push_u8(static_cast<std::uint8_t>(v));  // negative fixint
  } else if (v >= std::numeric_limits<std::int8_t>::min()) {
    out_->push_u8(0xD0);
    out_->push_u8(static_cast<std::uint8_t>(v));
  } else if (v >= std::numeric_limits<std::int16_t>::min()) {
    out_->push_u8(0xD1);
    out_->push_u16be(static_cast<std::uint16_t>(v));
  } else if (v >= std::numeric_limits<std::int32_t>::min()) {
    out_->push_u8(0xD2);
    out_->push_u32be(static_cast<std::uint32_t>(v));
  } else {
    out_->push_u8(0xD3);
    out_->push_u64be(static_cast<std::uint64_t>(v));
  }
}

template <typename Out>
void BasicEncoder<Out>::pack_double(double v) {
  out_->push_u8(0xCB);
  out_->push_f64be(v);
}

template <typename Out>
void BasicEncoder<Out>::pack_string(std::string_view s) {
  std::size_t n = s.size();
  if (n < 32) {
    out_->push_u8(static_cast<std::uint8_t>(0xA0 | n));
  } else if (n <= 0xFFu) {
    out_->push_u8(0xD9);
    out_->push_u8(static_cast<std::uint8_t>(n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xDA);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xDB);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
  out_->push_bytes(s);
}

template <typename Out>
void BasicEncoder<Out>::pack_bin(std::span<const std::uint8_t> bytes) {
  pack_bin_header(bytes.size());
  out_->push_bytes(bytes);
}

template <typename Out>
void BasicEncoder<Out>::pack_bin_header(std::size_t n) {
  if (n <= 0xFFu) {
    out_->push_u8(0xC4);
    out_->push_u8(static_cast<std::uint8_t>(n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xC5);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xC6);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
}

template <typename Out>
void BasicEncoder<Out>::pack_array_header(std::size_t n) {
  if (n < 16) {
    out_->push_u8(static_cast<std::uint8_t>(0x90 | n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xDC);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xDD);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
}

template <typename Out>
void BasicEncoder<Out>::pack_map_header(std::size_t n) {
  if (n < 16) {
    out_->push_u8(static_cast<std::uint8_t>(0x80 | n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xDE);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xDF);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
}

template <typename Out>
void BasicEncoder<Out>::pack(const Value& v) {
  if (v.is_nil()) {
    pack_nil();
  } else if (v.is_bool()) {
    pack_bool(v.as_bool());
  } else if (v.is_int()) {
    // preserve sign domain: encode through int if representable, else uint
    std::uint64_t u = 0;
    bool negative = false;
    try {
      u = v.as_uint();
    } catch (const std::runtime_error&) {
      negative = true;
    }
    if (negative) {
      pack_int(v.as_int());
    } else {
      pack_uint(u);
    }
  } else if (v.is_double()) {
    pack_double(v.as_double());
  } else if (v.is_string()) {
    pack_string(v.as_string());
  } else if (v.is_bin()) {
    pack_bin(v.as_bin());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    pack_array_header(arr.size());
    for (const auto& el : arr) pack(el);
  } else {
    const auto& map = v.as_map();
    pack_map_header(map.size());
    for (const auto& [k, val] : map) {
      pack_string(k);
      pack(val);
    }
  }
}

template class BasicEncoder<ByteBuffer>;
template class BasicEncoder<FixedBuffer>;

// ---------------------------------------------------------------- decoder

Value Decoder::next() { return decode_value(0); }

Value Decoder::decode_value(int depth) {
  if (depth > kMaxDepth) throw std::runtime_error("msgpack: nesting too deep");
  std::uint8_t tag = reader_.read_u8();

  // fix families
  if (tag < 0x80) return Value(static_cast<std::uint64_t>(tag));  // positive fixint
  if (tag >= 0xE0) return Value(static_cast<std::int64_t>(static_cast<std::int8_t>(tag)));
  if ((tag & 0xF0) == 0x80) {  // fixmap
    std::size_t n = tag & 0x0F;
    Map m;
    for (std::size_t i = 0; i < n; ++i) {
      Value key = decode_value(depth + 1);
      m[key.as_string()] = decode_value(depth + 1);
    }
    return Value(std::move(m));
  }
  if ((tag & 0xF0) == 0x90) {  // fixarray
    std::size_t n = tag & 0x0F;
    Array a;
    a.reserve(n);
    for (std::size_t i = 0; i < n; ++i) a.push_back(decode_value(depth + 1));
    return Value(std::move(a));
  }
  if ((tag & 0xE0) == 0xA0) {  // fixstr
    std::size_t n = tag & 0x1F;
    return Value(to_string(reader_.read_bytes(n)));
  }

  auto read_str = [&](std::size_t n) { return Value(to_string(reader_.read_bytes(n))); };
  auto read_bin = [&](std::size_t n) {
    auto b = reader_.read_bytes(n);
    return Value(Bin(b.begin(), b.end()));
  };
  auto read_array = [&](std::size_t n) {
    Array a;
    a.reserve(std::min<std::size_t>(n, 1 << 16));
    for (std::size_t i = 0; i < n; ++i) a.push_back(decode_value(depth + 1));
    return Value(std::move(a));
  };
  auto read_map = [&](std::size_t n) {
    Map m;
    for (std::size_t i = 0; i < n; ++i) {
      Value key = decode_value(depth + 1);
      m[key.as_string()] = decode_value(depth + 1);
    }
    return Value(std::move(m));
  };

  switch (tag) {
    case 0xC0: return Value(nullptr);
    case 0xC2: return Value(false);
    case 0xC3: return Value(true);
    case 0xC4: return read_bin(reader_.read_u8());
    case 0xC5: return read_bin(reader_.read_u16be());
    case 0xC6: return read_bin(reader_.read_u32be());
    case 0xCA: {  // float32
      std::uint32_t bits = reader_.read_u32be();
      float f;
      std::memcpy(&f, &bits, sizeof f);
      return Value(static_cast<double>(f));
    }
    case 0xCB: return Value(reader_.read_f64be());
    case 0xCC: return Value(static_cast<std::uint64_t>(reader_.read_u8()));
    case 0xCD: return Value(static_cast<std::uint64_t>(reader_.read_u16be()));
    case 0xCE: return Value(static_cast<std::uint64_t>(reader_.read_u32be()));
    case 0xCF: return Value(reader_.read_u64be());
    case 0xD0: return Value(static_cast<std::int64_t>(static_cast<std::int8_t>(reader_.read_u8())));
    case 0xD1:
      return Value(static_cast<std::int64_t>(static_cast<std::int16_t>(reader_.read_u16be())));
    case 0xD2:
      return Value(static_cast<std::int64_t>(static_cast<std::int32_t>(reader_.read_u32be())));
    case 0xD3: return Value(static_cast<std::int64_t>(reader_.read_u64be()));
    case 0xD9: return read_str(reader_.read_u8());
    case 0xDA: return read_str(reader_.read_u16be());
    case 0xDB: return read_str(reader_.read_u32be());
    case 0xDC: return read_array(reader_.read_u16be());
    case 0xDD: return read_array(reader_.read_u32be());
    case 0xDE: return read_map(reader_.read_u16be());
    case 0xDF: return read_map(reader_.read_u32be());
    default:
      unsupported_tag(tag);
  }
}

// ------------------------------------------------- typed streaming access

bool Decoder::next_bool() {
  std::uint8_t tag = reader_.read_u8();
  if (tag == 0xC3) return true;
  if (tag == 0xC2) return false;
  throw std::runtime_error("msgpack: value is not bool");
}

std::uint64_t Decoder::next_uint() {
  std::int64_t v = next_int_impl<true>();
  return static_cast<std::uint64_t>(v);
}

std::int64_t Decoder::next_int() { return next_int_impl<false>(); }

template <bool AsUint>
std::int64_t Decoder::next_int_impl() {
  std::uint8_t tag = reader_.read_u8();
  std::uint64_t u = 0;
  std::int64_t s = 0;
  bool is_signed = false;
  if (tag < 0x80) {
    u = tag;  // positive fixint
  } else if (tag >= 0xE0) {
    s = static_cast<std::int8_t>(tag);  // negative fixint
    is_signed = true;
  } else {
    switch (tag) {
      case 0xCC: u = reader_.read_u8(); break;
      case 0xCD: u = reader_.read_u16be(); break;
      case 0xCE: u = reader_.read_u32be(); break;
      case 0xCF: u = reader_.read_u64be(); break;
      case 0xD0: s = static_cast<std::int8_t>(reader_.read_u8()); is_signed = true; break;
      case 0xD1: s = static_cast<std::int16_t>(reader_.read_u16be()); is_signed = true; break;
      case 0xD2: s = static_cast<std::int32_t>(reader_.read_u32be()); is_signed = true; break;
      case 0xD3: s = static_cast<std::int64_t>(reader_.read_u64be()); is_signed = true; break;
      default: throw std::runtime_error("msgpack: value is not int");
    }
  }
  if constexpr (AsUint) {
    if (is_signed && s < 0) throw std::runtime_error("msgpack: negative value as uint");
    if (!is_signed) return static_cast<std::int64_t>(u);  // caller casts back
    return s;
  } else {
    if (is_signed) return s;
    if (u > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw std::runtime_error("msgpack: uint value out of int64 range");
    }
    return static_cast<std::int64_t>(u);
  }
}

std::string_view Decoder::next_string_view() {
  std::uint8_t tag = reader_.read_u8();
  std::size_t n = 0;
  if ((tag & 0xE0) == 0xA0) {
    n = tag & 0x1F;  // fixstr
  } else {
    switch (tag) {
      case 0xD9: n = reader_.read_u8(); break;
      case 0xDA: n = reader_.read_u16be(); break;
      case 0xDB: n = reader_.read_u32be(); break;
      default: throw std::runtime_error("msgpack: value is not string");
    }
  }
  auto bytes = reader_.read_bytes(n);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::span<const std::uint8_t> Decoder::next_bin_view() {
  std::uint8_t tag = reader_.read_u8();
  std::size_t n = 0;
  switch (tag) {
    case 0xC4: n = reader_.read_u8(); break;
    case 0xC5: n = reader_.read_u16be(); break;
    case 0xC6: n = reader_.read_u32be(); break;
    default: throw std::runtime_error("msgpack: value is not bin");
  }
  return reader_.read_bytes(n);
}

std::size_t Decoder::next_array_header() {
  std::uint8_t tag = reader_.read_u8();
  if ((tag & 0xF0) == 0x90) return tag & 0x0F;  // fixarray
  if (tag == 0xDC) return reader_.read_u16be();
  if (tag == 0xDD) return reader_.read_u32be();
  throw std::runtime_error("msgpack: value is not array");
}

std::size_t Decoder::next_map_header() {
  std::uint8_t tag = reader_.read_u8();
  if ((tag & 0xF0) == 0x80) return tag & 0x0F;  // fixmap
  if (tag == 0xDE) return reader_.read_u16be();
  if (tag == 0xDF) return reader_.read_u32be();
  throw std::runtime_error("msgpack: value is not map");
}

void Decoder::skip_value() { skip_value(0); }

void Decoder::skip_value(int depth) {
  if (depth > kMaxDepth) throw std::runtime_error("msgpack: nesting too deep");
  std::uint8_t tag = reader_.read_u8();
  if (tag < 0x80 || tag >= 0xE0) return;                      // fixint
  if ((tag & 0xE0) == 0xA0) return reader_.skip(tag & 0x1F);  // fixstr
  if ((tag & 0xF0) == 0x90) {                                 // fixarray
    for (std::size_t i = 0, n = tag & 0x0F; i < n; ++i) skip_value(depth + 1);
    return;
  }
  if ((tag & 0xF0) == 0x80) {  // fixmap
    for (std::size_t i = 0, n = tag & 0x0F; i < n; ++i) {
      skip_value(depth + 1);
      skip_value(depth + 1);
    }
    return;
  }
  auto skip_n = [&](std::size_t n, bool pairs) {
    for (std::size_t i = 0; i < n; ++i) {
      skip_value(depth + 1);
      if (pairs) skip_value(depth + 1);
    }
  };
  switch (tag) {
    case 0xC0: case 0xC2: case 0xC3: return;  // nil / bool
    case 0xC4: return reader_.skip(reader_.read_u8());
    case 0xC5: return reader_.skip(reader_.read_u16be());
    case 0xC6: return reader_.skip(reader_.read_u32be());
    case 0xCA: return reader_.skip(4);  // float32
    case 0xCB: return reader_.skip(8);  // float64
    case 0xCC: case 0xD0: return reader_.skip(1);
    case 0xCD: case 0xD1: return reader_.skip(2);
    case 0xCE: case 0xD2: return reader_.skip(4);
    case 0xCF: case 0xD3: return reader_.skip(8);
    case 0xD9: return reader_.skip(reader_.read_u8());
    case 0xDA: return reader_.skip(reader_.read_u16be());
    case 0xDB: return reader_.skip(reader_.read_u32be());
    case 0xDC: return skip_n(reader_.read_u16be(), false);
    case 0xDD: return skip_n(reader_.read_u32be(), false);
    case 0xDE: return skip_n(reader_.read_u16be(), true);
    case 0xDF: return skip_n(reader_.read_u32be(), true);
    default: unsupported_tag(tag);
  }
}

std::vector<std::uint8_t> encode(const Value& v) {
  ByteBuffer buf;
  Encoder enc(buf);
  enc.pack(v);
  return buf.take();
}

Value decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  Value v = dec.next();
  return v;
}

}  // namespace emlio::msgpack
