#include "vitis/dpu_runner.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/trace.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "vitis/dpu_descriptor.h"
#include "vitis/tensor.h"

namespace msa::vitis {

namespace {

constexpr std::uint64_t kMetaBytes = 64;

std::uint64_t align16(std::uint64_t v) { return (v + 15) & ~std::uint64_t{15}; }

/// Heap metadata words: a glibc-style malloc chunk header (the paper's
/// Fig. 12 dump begins "9102 0000 0000 0000" = little-endian 0x291, a
/// chunk size) followed by plausible ARM64 heap pointers.
std::vector<std::uint8_t> meta_bytes(mem::VirtAddr heap_base) {
  util::ByteWriter out;
  out.u64(0);                          // prev_size
  out.u64(0x291);                      // chunk size | flags
  out.u64(heap_base + 0x1f17108);      // fd-style pointer into the heap
  out.u64(heap_base + 0x1f11270);      // bk-style pointer
  while (out.size() < kMetaBytes) out.u8(0);
  return out.take();
}

/// The staged input image read back out of the heap; one buffer per
/// thread, reused run to run.
thread_local std::vector<std::uint8_t> t_staged;

HeapLayout layout_with(const XModel& model, std::size_t strings_bytes,
                       std::uint32_t image_width, std::uint32_t image_height) {
  HeapLayout lay;
  lay.image_width = image_width;
  lay.image_height = image_height;
  lay.meta_off = 0;
  lay.descriptor_off = kMetaBytes;
  lay.strings_off = align16(lay.descriptor_off + DpuDescriptor::kEncodedSize);
  lay.xmodel_off = align16(lay.strings_off + strings_bytes);
  lay.image_off = align16(lay.xmodel_off + model.serialize().size());
  lay.output_off = align16(
      lay.image_off + static_cast<std::uint64_t>(image_width) * image_height * 3);
  lay.total_bytes =
      align16(lay.output_off + model.num_classes() * sizeof(float));
  return lay;
}

}  // namespace

std::vector<std::uint8_t> DpuRunner::staged_strings(const XModel& model) {
  std::vector<std::uint8_t> out;
  auto put = [&](const std::string& s) {
    out.insert(out.end(), s.begin(), s.end());
    out.push_back(0);
  };
  // argv-style strings first (what the process was invoked with) ...
  put("./" + model.name());
  put(model.install_path());
  put("../images/001.jpg");
  // ... then the runtime metadata strings.
  for (const auto& s : model.aux_strings()) put(s);
  // Pad to 16 so the next section starts aligned.
  while (out.size() % 16 != 0) out.push_back(0);
  return out;
}

HeapLayout DpuRunner::layout_for(const XModel& model, std::uint32_t image_width,
                                 std::uint32_t image_height) {
  return layout_with(model, staged_strings(model).size(), image_width,
                     image_height);
}

RunResult DpuRunner::run(os::Pid pid, const XModel& model,
                         const img::Image& input) {
  const std::vector<std::uint8_t> strings = staged_strings(model);
  const HeapLayout lay =
      layout_with(model, strings.size(), input.width(), input.height());
  mem::VirtAddr heap_start = 0;
  {
    TRACE_SPAN("launch", "stage");
    heap_start = system_.sbrk(pid, lay.total_bytes);

    // Stage every section through the page table.
    system_.write_virt(pid, heap_start + lay.meta_off, meta_bytes(heap_start));
    DpuDescriptor desc;
    desc.input_va = heap_start + lay.image_off;
    desc.input_width = input.width();
    desc.input_height = input.height();
    desc.output_va = heap_start + lay.output_off;
    desc.output_len = model.num_classes();
    desc.model_crc = util::crc32(model.name());
    system_.write_virt(pid, heap_start + lay.descriptor_off, desc.encode());
    system_.write_virt(pid, heap_start + lay.strings_off, strings);
    system_.write_virt(pid, heap_start + lay.xmodel_off, model.serialize());
    system_.write_virt(pid, heap_start + lay.image_off, input.rgb_bytes());

    // The DPU reads its input from device memory: read the image back out
    // of the heap rather than using the caller's copy.
    t_staged.resize(input.rgb_bytes().size());
    system_.read_virt(pid, heap_start + lay.image_off, t_staged);
  }
  const Tensor preprocessed = [&] {
    TRACE_SPAN("launch", "preprocess");
    return tensor_from_rgb_bytes(t_staged, input.width(), input.height(),
                                 model.input_shape().w, model.input_shape().h);
  }();

  RunResult result;
  result.layout = lay;
  {
    TRACE_SPAN("launch", "infer");
    result.scores = model.infer(preprocessed);
  }
  result.top_class = static_cast<std::size_t>(
      std::max_element(result.scores.begin(), result.scores.end()) -
      result.scores.begin());

  // Write the output tensor back into the heap (it, too, becomes residue).
  std::vector<std::uint8_t> out_bytes(result.scores.size() * sizeof(float));
  std::memcpy(out_bytes.data(), result.scores.data(), out_bytes.size());
  system_.write_virt(pid, heap_start + lay.output_off, out_bytes);

  return result;
}

}  // namespace msa::vitis
