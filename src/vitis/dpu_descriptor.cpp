#include "vitis/dpu_descriptor.h"

#include "util/bytes.h"
#include "util/crc32.h"

namespace msa::vitis {

namespace {

constexpr std::size_t kBodySize = DpuDescriptor::kEncodedSize - 4;  // CRC last

}  // namespace

std::vector<std::uint8_t> DpuDescriptor::encode() const {
  util::ByteWriter out;
  out.u32(kMagic);
  out.u16(version);
  out.u16(0);  // reserved / alignment
  out.u64(input_va);
  out.u32(input_width);
  out.u32(input_height);
  out.u64(output_va);
  out.u32(output_len);
  out.u32(model_crc);
  // Pad to the fixed size minus the CRC word.
  while (out.size() < kBodySize) out.u8(0);
  out.u32(util::crc32(out.bytes()));
  return out.take();
}

std::optional<DpuDescriptor> DpuDescriptor::decode_at(
    std::span<const std::uint8_t> bytes, std::size_t offset) {
  if (offset > bytes.size() || bytes.size() - offset < kEncodedSize) {
    return std::nullopt;
  }
  const auto view = bytes.subspan(offset, kEncodedSize);
  util::ByteReader in{view};
  if (in.u32() != kMagic) return std::nullopt;
  DpuDescriptor d;
  d.version = in.u16();
  (void)in.u16();  // reserved
  d.input_va = in.u64();
  d.input_width = in.u32();
  d.input_height = in.u32();
  d.output_va = in.u64();
  d.output_len = in.u32();
  d.model_crc = in.u32();
  (void)in.bytes(kBodySize - in.position());  // padding
  if (in.u32() != util::crc32(view.first(kBodySize))) return std::nullopt;
  if (d.version != 1) return std::nullopt;
  return d;
}

}  // namespace msa::vitis
