#include "util/hexdump.h"

#include <cctype>
#include <stdexcept>

#include "util/bytes.h"

namespace msa::util {

namespace {

constexpr char kLower[] = "0123456789abcdef";
constexpr char kUpper[] = "0123456789ABCDEF";

void append_byte_hex(std::string& out, std::uint8_t b, bool uppercase) {
  const char* digits = uppercase ? kUpper : kLower;
  out.push_back(digits[b >> 4]);
  out.push_back(digits[b & 0xF]);
}

void append_offset(std::string& out, std::size_t offset, bool uppercase) {
  const char* digits = uppercase ? kUpper : kLower;
  for (int shift = 28; shift >= 0; shift -= 4) {
    out.push_back(digits[(offset >> shift) & 0xF]);
  }
  out.push_back(' ');
  out.push_back(' ');
}

}  // namespace

char ascii_or_dot(std::uint8_t b) noexcept {
  return (b >= 0x20 && b < 0x7F) ? static_cast<char>(b) : '.';
}

std::string hex_row(std::span<const std::uint8_t> bytes, const HexDumpOptions& opts) {
  std::string out;
  const std::size_t width = opts.bytes_per_row;
  out.reserve(width * 4);
  // Hex column: 16-bit big-endian-looking groups, matching hexdump(1)'s
  // default on little-endian hosts would swap bytes; the paper's listings
  // show plain byte order ("6c73" for "ls"), i.e. hexdump -C style pairs
  // grouped two bytes at a time. We emit bytes in order, grouped in pairs.
  for (std::size_t i = 0; i < width; ++i) {
    if (i > 0 && i % 2 == 0) out.push_back(' ');
    if (i < bytes.size()) {
      append_byte_hex(out, bytes[i], opts.uppercase);
    } else {
      out.append("  ");  // pad short final row so the gutter aligns
    }
  }
  if (opts.ascii_gutter) {
    out.append("  ");
    for (const std::uint8_t b : bytes) out.push_back(ascii_or_dot(b));
  }
  return out;
}

std::string hex_dump(std::span<const std::uint8_t> bytes, const HexDumpOptions& opts) {
  std::string out;
  const std::size_t width = opts.bytes_per_row == 0 ? 16 : opts.bytes_per_row;
  out.reserve(bytes.size() * 4 + bytes.size() / width * 2);
  for (std::size_t row = 0; row * width < bytes.size(); ++row) {
    if (row > 0) out.push_back('\n');
    if (opts.offsets) append_offset(out, row * width, opts.uppercase);
    const std::size_t begin = row * width;
    const std::size_t len = std::min(width, bytes.size() - begin);
    out += hex_row(bytes.subspan(begin, len), opts);
  }
  return out;
}

std::vector<std::uint8_t> parse_hex_dump(const std::string& text) {
  std::vector<std::uint8_t> out;
  out.reserve(text.size() / 3);
  int hi = -1;
  bool in_gutter = false;
  int spaces = 0;
  for (const char c : text) {
    if (c == '\n') {
      in_gutter = false;
      spaces = 0;
      hi = -1;
      continue;
    }
    if (in_gutter) continue;
    if (c == ' ') {
      // Two consecutive spaces separate the hex column from the gutter.
      if (++spaces >= 2) in_gutter = true;
      continue;
    }
    spaces = 0;
    int v = -1;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else throw std::invalid_argument("parse_hex_dump: non-hex character in hex column");
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) throw std::invalid_argument("parse_hex_dump: dangling nibble");
  return out;
}

std::vector<std::uint8_t> words_to_bytes_le(std::span<const std::uint32_t> words) {
  ByteWriter out;
  for (const std::uint32_t w : words) out.u32(w);
  return out.take();
}

}  // namespace msa::util
