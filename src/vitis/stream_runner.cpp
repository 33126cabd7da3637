#include "vitis/stream_runner.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/crc32.h"
#include "vitis/dpu_runner.h"
#include "vitis/tensor.h"

namespace msa::vitis {

namespace {
std::uint64_t align16(std::uint64_t v) { return (v + 15) & ~std::uint64_t{15}; }
}  // namespace

StreamLayout StreamRunner::layout_for(const XModel& model,
                                      std::uint32_t frame_width,
                                      std::uint32_t frame_height,
                                      std::uint32_t ring_frames) {
  if (ring_frames == 0) {
    throw std::invalid_argument("StreamRunner: ring_frames must be positive");
  }
  StreamLayout lay;
  lay.ring_frames = ring_frames;
  lay.frame_width = frame_width;
  lay.frame_height = frame_height;
  lay.num_classes = model.num_classes();
  lay.meta_off = 0;
  lay.desc_ring_off = 64;
  lay.strings_off = align16(lay.desc_ring_off +
                            ring_frames * DpuDescriptor::kEncodedSize);
  lay.xmodel_off =
      align16(lay.strings_off + DpuRunner::staged_strings(model).size());
  lay.frame_ring_off = align16(lay.xmodel_off + model.serialize().size());
  lay.output_ring_off =
      align16(lay.frame_ring_off + ring_frames * lay.frame_bytes());
  lay.total_bytes = align16(lay.output_ring_off +
                            ring_frames * lay.num_classes * sizeof(float));
  return lay;
}

StreamRunResult StreamRunner::run(os::Pid pid, const XModel& model,
                                  std::span<const img::Image> frames,
                                  std::uint32_t ring_frames) {
  if (frames.empty()) {
    throw std::invalid_argument("StreamRunner: no frames");
  }
  const std::uint32_t w = frames[0].width();
  const std::uint32_t h = frames[0].height();
  for (const auto& f : frames) {
    if (f.width() != w || f.height() != h) {
      throw std::invalid_argument("StreamRunner: mixed frame geometry");
    }
  }

  const StreamLayout lay = layout_for(model, w, h, ring_frames);
  const mem::VirtAddr heap = system_.sbrk(pid, lay.total_bytes);

  // One-time staging: metadata strings + serialized model.
  system_.write_virt(pid, heap + lay.strings_off,
                     DpuRunner::staged_strings(model));
  system_.write_virt(pid, heap + lay.xmodel_off, model.serialize());

  StreamRunResult result;
  result.layout = lay;
  result.top_classes.reserve(frames.size());

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::uint32_t slot = static_cast<std::uint32_t>(i % ring_frames);

    // Stage the frame and its descriptor into the ring slot.
    system_.write_virt(pid, heap + lay.frame_slot_off(slot),
                       frames[i].rgb_bytes());
    DpuDescriptor desc;
    desc.input_va = heap + lay.frame_slot_off(slot);
    desc.input_width = w;
    desc.input_height = h;
    desc.output_va = heap + lay.output_slot_off(slot);
    desc.output_len = lay.num_classes;
    desc.model_crc = util::crc32(model.name());
    system_.write_virt(pid, heap + lay.desc_slot_off(slot), desc.encode());

    // Read the frame back from device memory, infer, stage the output.
    std::vector<std::uint8_t> staged(
        static_cast<std::size_t>(lay.frame_bytes()));
    system_.read_virt(pid, heap + lay.frame_slot_off(slot), staged);
    const auto scores = model.infer(tensor_from_rgb_bytes(
        staged, w, h, model.input_shape().w, model.input_shape().h));
    result.top_classes.push_back(static_cast<std::size_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin()));

    std::vector<std::uint8_t> out_bytes(scores.size() * sizeof(float));
    std::memcpy(out_bytes.data(), scores.data(), out_bytes.size());
    system_.write_virt(pid, heap + lay.output_slot_off(slot), out_bytes);
  }
  return result;
}

}  // namespace msa::vitis
