#include "vitis/dpu_runner.h"

#include <gtest/gtest.h>

#include <cstring>

#include "obs/metrics.h"
#include "simd_levels.h"
#include "util/crc32.h"
#include "util/strings.h"
#include "vitis/model_zoo.h"
#include "vitis/runtime.h"

namespace msa::vitis {
namespace {

struct Fixture {
  os::PetaLinuxSystem sys{os::SystemConfig::test_small()};
  os::Pid pid = 0;
  XModel model = make_zoo_model("resnet50_pt");

  Fixture() { pid = sys.spawn(1000, {"./resnet50_pt"}, "pts/1"); }
};

TEST(DpuRunner, LayoutIsDeterministicAndOrdered) {
  const XModel m = make_zoo_model("resnet50_pt");
  const HeapLayout a = DpuRunner::layout_for(m, 96, 96);
  const HeapLayout b = DpuRunner::layout_for(m, 96, 96);
  EXPECT_EQ(a, b);
  EXPECT_LT(a.meta_off, a.strings_off);
  EXPECT_LT(a.strings_off, a.xmodel_off);
  EXPECT_LT(a.xmodel_off, a.image_off);
  EXPECT_LT(a.image_off, a.output_off);
  EXPECT_LE(a.output_off + m.num_classes() * 4, a.total_bytes);
}

TEST(DpuRunner, LayoutDependsOnImageGeometry) {
  const XModel m = make_zoo_model("resnet50_pt");
  const HeapLayout small = DpuRunner::layout_for(m, 64, 64);
  const HeapLayout big = DpuRunner::layout_for(m, 128, 128);
  EXPECT_EQ(small.image_off, big.image_off);  // same prefix
  EXPECT_LT(small.output_off, big.output_off);
}

TEST(DpuRunner, LayoutDependsOnModel) {
  const HeapLayout r =
      DpuRunner::layout_for(make_zoo_model("resnet50_pt"), 96, 96);
  const HeapLayout s =
      DpuRunner::layout_for(make_zoo_model("squeezenet_pt"), 96, 96);
  EXPECT_NE(r.image_off, s.image_off);
}

TEST(DpuRunner, StagedStringsContainArgvAndMetadata) {
  const XModel m = make_zoo_model("resnet50_pt");
  const auto bytes = DpuRunner::staged_strings(m);
  const std::string text{bytes.begin(), bytes.end()};
  EXPECT_NE(text.find("./resnet50_pt"), std::string::npos);
  EXPECT_NE(text.find("/usr/share/vitis_ai_library/models/resnet50_pt/"),
            std::string::npos);
  EXPECT_NE(text.find("torchvision/resnet50"), std::string::npos);
  EXPECT_EQ(bytes.size() % 16, 0u);
}

TEST(DpuRunner, RunStagesImageBytesExactly) {
  Fixture f;
  DpuRunner runner{f.sys};
  const img::Image input = img::make_test_image(80, 80, 9);
  const RunResult r = runner.run(f.pid, f.model, input);

  const mem::VirtAddr heap = f.sys.process(f.pid).heap_base();
  std::vector<std::uint8_t> staged(input.pixel_count() * 3);
  f.sys.read_virt(f.pid, heap + r.layout.image_off, staged);
  EXPECT_EQ(staged, input.to_rgb_bytes());
}

TEST(DpuRunner, RunStagesSerializedModel) {
  Fixture f;
  DpuRunner runner{f.sys};
  const img::Image input = img::make_test_image(64, 64, 2);
  const RunResult r = runner.run(f.pid, f.model, input);

  const auto blob = f.model.serialize();
  const mem::VirtAddr heap = f.sys.process(f.pid).heap_base();
  std::vector<std::uint8_t> staged(blob.size());
  f.sys.read_virt(f.pid, heap + r.layout.xmodel_off, staged);
  EXPECT_EQ(staged, blob);
  // And it still parses from process memory.
  EXPECT_EQ(XModel::deserialize(staged).name(), "resnet50_pt");
}

TEST(DpuRunner, RunWritesMallocStyleMetadata) {
  Fixture f;
  DpuRunner runner{f.sys};
  (void)runner.run(f.pid, f.model, img::make_test_image(64, 64, 2));
  const mem::VirtAddr heap = f.sys.process(f.pid).heap_base();
  // Fig. 12's dump begins "9102 0000 ..." = chunk size 0x291 at offset 8.
  std::uint8_t buf[8];
  f.sys.read_virt(f.pid, heap + 8, buf);
  EXPECT_EQ(buf[0], 0x91);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(DpuRunner, ScoresDeterministicAndStagedToHeap) {
  Fixture f1, f2;
  DpuRunner r1{f1.sys}, r2{f2.sys};
  const img::Image input = img::make_test_image(72, 72, 4);
  const RunResult a = r1.run(f1.pid, f1.model, input);
  const RunResult b = r2.run(f2.pid, f2.model, input);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.top_class, b.top_class);

  // Output tensor residue staged at output_off.
  const mem::VirtAddr heap = f1.sys.process(f1.pid).heap_base();
  std::vector<std::uint8_t> out_bytes(a.scores.size() * sizeof(float));
  f1.sys.read_virt(f1.pid, heap + a.layout.output_off, out_bytes);
  std::vector<float> staged(a.scores.size());
  std::memcpy(staged.data(), out_bytes.data(), out_bytes.size());
  EXPECT_EQ(staged, a.scores);
}

TEST(DpuRunner, DifferentImagesDifferentScores) {
  Fixture f;
  DpuRunner runner{f.sys};
  const RunResult a =
      runner.run(f.pid, f.model, img::make_test_image(64, 64, 1));
  os::PetaLinuxSystem sys2{os::SystemConfig::test_small()};
  const os::Pid pid2 = sys2.spawn(1000, {"x"}, "pts/1");
  DpuRunner runner2{sys2};
  const RunResult b =
      runner2.run(pid2, f.model, img::make_test_image(64, 64, 99));
  EXPECT_NE(a.scores, b.scores);
}

TEST(DpuRunner, StagedHeapBytesArePinned) {
  // The staged heap is the residue the attack reads, so pin all of it:
  // metadata, descriptor, strings, container, input bytes and scores, on
  // a seeded board, for an input that the runner has to resize.
  const std::vector<std::pair<std::string, std::uint32_t>> expected = {
      {"resnet50_pt", 0x0c030773u},     {"squeezenet_pt", 0x779ef720u},
      {"inception_v1_tf", 0x71672255u}, {"mobilenet_v2_tf", 0x111c4515u},
      {"yolov3_tiny_tf", 0x6f00a992u},
  };
  ASSERT_EQ(expected.size(), zoo_model_names().size());
  for (const auto& [name, crc] : expected) {
    for (const util::SimdLevel level : util::simd_levels_up_to_detected()) {
      const util::SimdCapGuard cap{level};
      os::SystemConfig cfg = os::SystemConfig::test_small();
      cfg.seed = 0x5EED;
      os::PetaLinuxSystem sys{cfg};
      const os::Pid pid = sys.spawn(1000, {"./" + name}, "pts/1");
      DpuRunner runner{sys};
      (void)runner.run(pid, make_zoo_model(name),
                       img::make_test_image(100, 75, 21));
      const os::Process& proc = sys.process(pid);
      std::vector<std::uint8_t> heap(proc.brk() - proc.heap_base());
      sys.read_virt(pid, proc.heap_base(), heap);
      EXPECT_EQ(util::crc32(heap), crc)
          << name << " " << util::simd_level_name(level);
    }
  }
}

TEST(Runtime, LaunchCreatesProcessWithPaperArgv) {
  os::PetaLinuxSystem sys{os::SystemConfig::test_small()};
  sys.add_user(1000, "victim");
  VitisAiRuntime rt{sys};
  const VictimRun run = rt.launch(1000, "resnet50_pt",
                                  img::make_test_image(64, 64, 3), "pts/1");
  EXPECT_TRUE(sys.alive(run.pid));
  EXPECT_EQ(sys.process(run.pid).cmdline(),
            "./resnet50_pt "
            "/usr/share/vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel "
            "../images/001.jpg");
  EXPECT_EQ(sys.process(run.pid).state(), os::ProcState::kSleeping);
  EXPECT_NE(sys.proc_maps(0, run.pid).find("/dev/dri/renderD128"),
            std::string::npos);
}

TEST(Runtime, ModelCacheReturnsSameInstance) {
  os::PetaLinuxSystem sys{os::SystemConfig::test_small()};
  VitisAiRuntime rt{sys};
  const XModel& a = rt.model("resnet50_pt");
  const XModel& b = rt.model("resnet50_pt");
  EXPECT_EQ(&a, &b);
}

TEST(Runtime, LaunchEncodesEachModelOnce) {
  // The container is encoded when the cached model is built; every launch
  // stages those bytes (the heap layout needs only their size).
  obs::Counter& encodes = obs::counter("vitis.xmodel_encodes");
  os::PetaLinuxSystem sys{os::SystemConfig::test_small()};
  sys.add_user(1000, "victim");
  VitisAiRuntime rt{sys};
  const std::uint64_t before = encodes.value();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const VictimRun run = rt.launch(1000, "resnet50_pt",
                                    img::make_test_image(64, 64, seed), "pts/1");
    sys.terminate(run.pid);
  }
  EXPECT_EQ(encodes.value() - before, 1u);
}

TEST(Runtime, LaunchUnknownModelThrows) {
  os::PetaLinuxSystem sys{os::SystemConfig::test_small()};
  VitisAiRuntime rt{sys};
  EXPECT_THROW(
      rt.launch(0, "bogus_model", img::make_test_image(8, 8, 1), "pts/0"),
      std::invalid_argument);
}

}  // namespace
}  // namespace msa::vitis
