// Endian-stable byte IO: the primitives every wire layout in the library is
// built from. All multi-byte integers are little-endian on the wire
// regardless of host order. Bit-packed arrays (ByteWriter::PutPackedBits,
// UnpackBits) are little-endian bit strings: value i of width w occupies
// bits [i*w, (i+1)*w), LSB-first within each byte, with zero padding up to
// the next byte.
//
// ByteWriter appends to a caller-owned std::string; ByteReader consumes a
// read-only byte span with strict bounds checking — every underflow is a
// typed OutOfRange error ("truncated"), never UB. Frame-level concerns
// (magic, versioning, payload layouts) live above this, in src/wire/.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/result.h"

namespace numdist {

/// \brief Little-endian append-only byte sink.
class ByteWriter {
 public:
  /// Appends to `*out` (not owned, must outlive the writer).
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v)); }
  void PutBytes(const void* data, size_t len) {
    out_->append(static_cast<const char*>(data), len);
  }
  /// Appends `values` as a packed bit string of `width` bits per value
  /// (1..32; each value must be below 2^width): PackedBytes(values.size(),
  /// width) bytes, padding bits zero.
  void PutPackedBits(std::span<const uint32_t> values, unsigned width);

 private:
  template <typename T>
  void PutLittleEndian(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

/// \brief Strict little-endian byte source over a borrowed span.
///
/// Every read is bounds-checked; reading past the end returns
/// OutOfRange("truncated ...") with the offset, so malformed or cut-off
/// input surfaces as a typed error at the exact failure point.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}
  /// Convenience view over string bytes (no copy).
  explicit ByteReader(std::string_view data)
      : data_(reinterpret_cast<const uint8_t*>(data.data()), data.size()) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Result<uint8_t> U8() {
    NUMDIST_RETURN_NOT_OK(Require(1));
    return data_[pos_++];
  }
  Result<uint16_t> U16() { return LittleEndian<uint16_t>(); }
  Result<uint32_t> U32() { return LittleEndian<uint32_t>(); }
  Result<uint64_t> U64() { return LittleEndian<uint64_t>(); }
  Result<int64_t> I64() {
    Result<uint64_t> v = U64();
    if (!v.ok()) return v.status();
    return static_cast<int64_t>(*v);
  }
  Status Bytes(void* dst, size_t len) {
    NUMDIST_RETURN_NOT_OK(Require(len));
    std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  /// Borrows the next `len` bytes without copying: a view into the
  /// reader's span, valid as long as that span is. Bounds-checked like
  /// every read.
  Result<std::span<const uint8_t>> Take(size_t len) {
    NUMDIST_RETURN_NOT_OK(Require(len));
    const std::span<const uint8_t> view = data_.subspan(pos_, len);
    pos_ += len;
    return view;
  }

 private:
  /// OK iff `len` more bytes are available; typed truncation error otherwise.
  Status Require(size_t len) const {
    if (remaining() < len) {
      return Status::OutOfRange(
          "truncated input: need " + std::to_string(len) + " byte(s) at "
          "offset " + std::to_string(pos_) + ", have " +
          std::to_string(remaining()));
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> LittleEndian() {
    NUMDIST_RETURN_NOT_OK(Require(sizeof(T)));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Bytes of a packed bit string of `n` values, `width` bits each:
/// ceil(n * width / 8), computed without overflowing n * width.
inline size_t PackedBytes(size_t n, unsigned width) {
  return n / 8 * width + (n % 8 * width + 7) / 8;
}

/// Little-endian u64 at `p` (unaligned).
inline uint64_t LoadLittleEndianU64(const uint8_t* p) {
  static_assert(std::endian::native == std::endian::little ||
                    std::endian::native == std::endian::big,
                "mixed-endian hosts are not supported");
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void ByteWriter::PutPackedBits(std::span<const uint32_t> values,
                                      unsigned width) {
  assert(width >= 1 && width <= 32);
  const size_t start = out_->size();
  out_->resize(start + PackedBytes(values.size(), width));
  char* dst = out_->data() + start;
  uint64_t acc = 0;   // pending bits, LSB first
  unsigned bits = 0;  // < 8 between values
  for (const uint32_t v : values) {
    assert(width == 32 || v < (uint32_t{1} << width));
    acc |= static_cast<uint64_t>(v) << bits;
    for (bits += width; bits >= 8; bits -= 8, acc >>= 8) {
      *dst++ = static_cast<char>(acc & 0xFF);
    }
  }
  if (bits > 0) *dst = static_cast<char>(acc & 0xFF);
}

/// Unpacks `n` values of `width` bits (1..32) from `src`, which holds
/// exactly PackedBytes(n, width) bytes (padding bits are not checked).
/// Eight values span exactly `width` bytes, so every group of eight
/// starts on a byte boundary: value k of a group is one 8-byte load at
/// byte k*width/8, shifted by k*width%8. Groups whose loads stay inside
/// `src` run branch-free; the last few go through a zero-padded copy, so
/// nothing past `src` is ever read.
inline void UnpackBits(std::span<const uint8_t> src, unsigned width,
                       uint32_t* out, size_t n) {
  assert(width >= 1 && width <= 32);
  assert(src.size() == PackedBytes(n, width));
  const uint64_t mask = (uint64_t{1} << width) - 1;
  size_t at[8];
  unsigned shift[8];
  for (unsigned k = 0; k < 8; ++k) {
    at[k] = k * width / 8;
    shift[k] = k * width % 8;
  }
  const size_t reach = at[7] + sizeof(uint64_t);  // bytes a group loads
  const size_t groups =
      src.size() < reach
          ? 0
          : std::min(n / 8, (src.size() - reach) / width + 1);
  const uint8_t* p = src.data();
  for (size_t g = 0; g < groups; ++g, p += width, out += 8) {
    for (unsigned k = 0; k < 8; ++k) {
      out[k] = static_cast<uint32_t>(
          (LoadLittleEndianU64(p + at[k]) >> shift[k]) & mask);
    }
  }
  // The rest — fewer than `reach` (<= 36) bytes — from a zeroed copy
  // with room for a full load at its last byte.
  uint8_t tail[48] = {};
  const size_t rest = src.size() - groups * width;
  assert(rest < reach && rest + sizeof(uint64_t) <= sizeof(tail));
  if (rest > 0) std::memcpy(tail, p, rest);
  for (size_t i = 0; i < n - groups * 8; ++i) {
    const size_t bit = i * width;
    out[i] = static_cast<uint32_t>(
        (LoadLittleEndianU64(tail + bit / 8) >> (bit % 8)) & mask);
  }
}

}  // namespace numdist
