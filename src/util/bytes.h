// The one little-endian byte codec. Every binary format in the tree
// goes through it: the campaign store's records, segments and lease
// logs, the XModel container and its layers, the DPU descriptor, and
// the words staged into simulated memory. All multi-byte integers are
// little-endian regardless of host byte order; doubles are serialized
// as their IEEE-754 bit pattern so a value round-trips bit-exactly
// (including -0.0, subnormals, infinities and NaN payloads — the
// campaign reports must be byte-identical whether they were computed in
// RAM or reloaded from a store). Unsigned varints use LEB128 (7 bits per
// byte, high bit = continuation), which keeps small counts and cell
// indices at one byte.
//
// Error contract: every ByteReader read is bounds-checked, and every
// overrun, malformed varint or count() larger than the bytes left throws
// std::invalid_argument and no other type. Decoders of untrusted bytes
// (memory residue, peer lease logs) catch exactly that, so a truncated
// or noisy input is a rejection, never a crash or a wild allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace msa::util {

/// Append-only serialization buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
    buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  }

  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  }

  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  }

  /// IEEE-754 bit pattern; exact round-trip for every double, NaNs
  /// included.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint, 1–10 bytes.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Varint byte length followed by the raw bytes.
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Varint byte length followed by the raw bytes — the mirror of
  /// ByteReader::blob.
  void blob(std::span<const std::uint8_t> bytes) {
    varint(bytes.size());
    raw(bytes);
  }

  /// Raw bytes, no length prefix — for splicing an already-encoded,
  /// self-delimiting payload (a segment block entry) into a buffer.
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// Empties the writer and keeps its capacity, for reuse.
  void clear() noexcept { buf_.clear(); }
  /// Moves the encoded buffer out, leaving the writer empty.
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked deserializer over a byte span; see the error contract
/// above. The per-record primitives (u8, u64/f64, a one-byte varint, blob)
/// are inline; the throws and multi-byte varints are out of line.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : data_{bytes} {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof v);
    } else {
      for (int i = 7; i >= 0; --i) v = v << 8 | data_[pos_ + i];
    }
    pos_ += sizeof v;
    return v;
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::uint64_t varint() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) return data_[pos_++];
    return varint_long();
  }
  /// Varint byte length followed by that many bytes, returned as a view
  /// into the reader's buffer (valid as long as that buffer is) — the
  /// zero-copy counterpart of ByteWriter::str.
  [[nodiscard]] std::span<const std::uint8_t> blob() { return take(varint()); }
  [[nodiscard]] std::string str();
  /// The next `n` bytes, as a view into the reader's buffer.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    return take(n);
  }
  /// Varint element count. Every element takes at least one byte, so a
  /// count above remaining() is corrupt and is rejected before a caller
  /// can reserve() it.
  [[nodiscard]] std::uint64_t count();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  /// Bytes consumed so far.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  void need(std::uint64_t n) const {
    if (remaining() < n) throw_past_end();
  }
  [[noreturn]] static void throw_past_end();
  /// varint() past its one-byte fast path: longer encodings and the
  /// malformed or truncated ones it rejects.
  [[nodiscard]] std::uint64_t varint_long();
  std::span<const std::uint8_t> take(std::uint64_t n) {
    need(n);
    const std::span<const std::uint8_t> out =
        data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace msa::util
