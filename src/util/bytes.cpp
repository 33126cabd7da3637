#include "util/bytes.h"

#include <stdexcept>

namespace msa::util {

void ByteReader::throw_past_end() {
  throw std::invalid_argument("bytes: read past the end of the buffer");
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int shift = 0; shift < 16; shift += 8) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(data_[pos_++])
                                        << shift));
  }
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t ByteReader::varint_long() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    // The 10th byte may only carry the single remaining bit.
    if (shift == 63 && byte > 1) {
      throw std::invalid_argument("bytes: varint exceeds 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw std::invalid_argument("bytes: unterminated varint");
}

std::uint64_t ByteReader::count() {
  const std::uint64_t n = varint();
  if (n > remaining()) {
    throw std::invalid_argument("bytes: count exceeds the bytes left");
  }
  return n;
}

std::string ByteReader::str() {
  const std::span<const std::uint8_t> bytes = blob();
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace msa::util
