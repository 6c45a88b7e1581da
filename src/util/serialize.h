// Binary serialization primitives for the persistence layer (src/persist/):
// explicit little-endian byte packing, bounds-checked reads, CRC-32 and a
// 64-bit FNV-1a fingerprint.
//
// Everything here is byte-deterministic: the same values always encode to
// the same bytes on every platform (no struct memcpy, no host endianness,
// no padding).  Doubles round-trip through their IEEE-754 bit pattern, so
// a decode(encode(x)) is the identical double — the property the
// kill/restore byte-identity contract rests on.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace metis::serialize {

/// Thrown by ByteReader on any malformed input: truncation, an
/// out-of-range length prefix, trailing bytes.  The message carries the
/// byte offset at which decoding failed.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Appends primitives to a byte buffer in canonical little-endian order.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { little_endian(v); }
  void u64(std::uint64_t v) { little_endian(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u64) byte string.
  void str(std::string_view s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  /// Raw bytes, no length prefix (the caller owns framing).
  void raw(const std::uint8_t* data, std::size_t n) {
    bytes_.insert(bytes_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  /// Appends `v` least significant byte first, as one insert: a byte-wise
  /// push_back checks the capacity once per byte.
  template <typename U>
  void little_endian(U v) {
    std::uint8_t b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    bytes_.insert(bytes_.end(), b, b + sizeof(U));
  }

  std::vector<std::uint8_t> bytes_;
};

/// Decodes a byte buffer written by ByteWriter.  Every read is
/// bounds-checked; a short buffer throws SerializeError instead of reading
/// past the end.  `context` tags error messages ("checkpoint section 3").
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size,
             std::string context = "buffer")
      : data_(data), size_(size), context_(std::move(context)) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes,
                      std::string context = "buffer")
      : ByteReader(bytes.data(), bytes.size(), std::move(context)) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean byte is " + std::to_string(v));
    return v != 0;
  }
  std::string str() {
    const std::uint64_t n = length(u64());
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Validates a length prefix against the bytes actually remaining, so a
  /// corrupted prefix can never trigger a huge allocation.
  std::uint64_t length(std::uint64_t n) {
    if (n > remaining()) {
      fail("length prefix " + std::to_string(n) + " exceeds the " +
           std::to_string(remaining()) + " bytes remaining");
    }
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == size_; }
  /// Call once decoding is complete: trailing bytes are corruption too.
  void expect_done() {
    if (!done()) {
      fail(std::to_string(remaining()) + " unexpected trailing bytes");
    }
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw SerializeError(context_ + " at byte " + std::to_string(pos_) + ": " +
                         message);
  }

 private:
  void need(std::size_t n) {
    if (size_ - pos_ < n) {
      fail("truncated: need " + std::to_string(n) + " bytes, have " +
           std::to_string(size_ - pos_));
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).  crc32("123456789")
/// == 0xCBF43926 — the standard check vector, asserted in test_persist.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// 64-bit FNV-1a running fingerprint: order-sensitive hash of a value
/// sequence, used to stamp a checkpoint with the configuration it was taken
/// under (a resume with a different config must be rejected, not replayed).
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
    return *this;
  }
  Fingerprint& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix(int v) { return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  Fingerprint& mix(bool v) { return mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  Fingerprint& mix(double v) { return mix(std::bit_cast<std::uint64_t>(v)); }
  Fingerprint& mix(std::string_view s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
    return *this;
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

/// "0x" and 16 lower-case hex digits: how resume diagnostics and
/// `ckpt_inspect dump` print a fingerprint.
std::string hex_fingerprint(std::uint64_t fp);

}  // namespace metis::serialize
