#include "attack/descriptor_scan.h"
#include "vitis/dpu_descriptor.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <iterator>

#include "attack/address_resolver.h"
#include "util/crc32.h"
#include "vitis/runtime.h"

namespace msa {
namespace {

vitis::DpuDescriptor sample_descriptor() {
  vitis::DpuDescriptor d;
  d.input_va = 0xaaaaee775000ULL + 0x6400;
  d.input_width = 96;
  d.input_height = 96;
  d.output_va = 0xaaaaee775000ULL + 0xD000;
  d.output_len = 10;
  d.model_crc = util::crc32("resnet50_pt");
  return d;
}

TEST(DpuDescriptor, EncodeDecodeRoundTrip) {
  const vitis::DpuDescriptor d = sample_descriptor();
  const auto bytes = d.encode();
  EXPECT_EQ(bytes.size(), vitis::DpuDescriptor::kEncodedSize);
  const auto decoded = vitis::DpuDescriptor::decode_at(bytes, 0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, d);
}

TEST(DpuDescriptor, EncodeBytesArePinned) {
  // Every field holds distinct bytes, so a swapped or mis-sized field
  // changes the encoding.
  vitis::DpuDescriptor d;
  d.input_va = 0x0123456789abcdefULL;
  d.input_width = 0x11223344u;
  d.input_height = 0x55667788u;
  d.output_va = 0xfedcba9876543210ULL;
  d.output_len = 0x99aabbccu;
  d.model_crc = 0xddeeff00u;
  const std::vector<std::uint8_t> want{
      0x44, 0x50, 0x55, 0x44, 0x01, 0x00, 0x00, 0x00, 0xef, 0xcd, 0xab, 0x89,
      0x67, 0x45, 0x23, 0x01, 0x44, 0x33, 0x22, 0x11, 0x88, 0x77, 0x66, 0x55,
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0xcc, 0xbb, 0xaa, 0x99,
      0x00, 0xff, 0xee, 0xdd, 0x00, 0x00, 0x00, 0x00, 0x10, 0xee, 0x98, 0xfd};
  EXPECT_EQ(d.encode(), want);
}

TEST(DpuDescriptor, DecodeRejectsBadMagic) {
  auto bytes = sample_descriptor().encode();
  bytes[0] = 'X';
  EXPECT_FALSE(vitis::DpuDescriptor::decode_at(bytes, 0).has_value());
}

TEST(DpuDescriptor, DecodeRejectsCorruptedPayload) {
  auto bytes = sample_descriptor().encode();
  bytes[10] ^= 0xFF;  // inside CRC coverage
  EXPECT_FALSE(vitis::DpuDescriptor::decode_at(bytes, 0).has_value());
}

TEST(DpuDescriptor, DecodeRejectsTruncation) {
  auto bytes = sample_descriptor().encode();
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(vitis::DpuDescriptor::decode_at(bytes, 0).has_value());
  EXPECT_FALSE(vitis::DpuDescriptor::decode_at(bytes, 40).has_value());
  // Every strict prefix, each in its own allocation: nullopt, no throw.
  const auto whole = sample_descriptor().encode();
  for (std::size_t len = 0; len < whole.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(vitis::DpuDescriptor::decode_at(prefix, 0).has_value()) << len;
  }
  EXPECT_FALSE(
      vitis::DpuDescriptor::decode_at(whole, whole.size() + 1).has_value());
}

TEST(DpuDescriptor, DecodeAtNonZeroOffset) {
  const auto payload = sample_descriptor().encode();
  // back_inserter rather than range-insert: GCC 12's -Warray-bounds
  // misfires on the latter at -O2 and CI builds with -Werror.
  std::vector<std::uint8_t> residue(100, 0xAB);
  std::copy(payload.begin(), payload.end(), std::back_inserter(residue));
  const auto decoded = vitis::DpuDescriptor::decode_at(residue, 100);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->input_width, 96u);
}

struct AttackFixture {
  os::PetaLinuxSystem sys{os::SystemConfig::test_small()};
  vitis::VitisAiRuntime runtime{sys};
  dbg::SystemDebugger dbg{sys, 1001};
  img::Image input = img::make_test_image(80, 80, 5);
  attack::ScrapedDump dump;

  AttackFixture() {
    sys.add_user(1000, "victim");
    sys.add_user(1001, "attacker");
    const vitis::VictimRun run =
        runtime.launch(1000, "resnet50_pt", input, "pts/1");
    attack::AddressResolver resolver{dbg};
    const attack::ResolvedTarget target = resolver.resolve_heap(run.pid);
    sys.terminate(run.pid);
    attack::MemoryScraper scraper{dbg};
    dump = scraper.scrape(target);
  }
};

TEST(DescriptorScan, FindsTheRuntimeDescriptor) {
  AttackFixture f;
  const auto found = attack::scan_descriptors(f.dump.bytes);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].second.input_width, 80u);
  EXPECT_EQ(found[0].second.model_crc, util::crc32("resnet50_pt"));
}

TEST(DescriptorScan, ProfileFreeReconstructionIsPixelExact) {
  // The extension's headline: no profiling pass, same result.
  AttackFixture f;
  const auto image = attack::reconstruct_via_descriptor(f.dump);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(*image, f.input);
}

TEST(DescriptorScan, RecoversVictimOutputScores) {
  AttackFixture f;
  const auto scores = attack::recover_output_scores(f.dump);
  ASSERT_TRUE(scores.has_value());
  EXPECT_EQ(scores->size(), 10u);
  float sum = 0;
  for (const float s : *scores) sum += s;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);  // it's the softmax the victim computed
}

TEST(DescriptorScan, NoDescriptorNoRecovery) {
  attack::ScrapedDump empty;
  empty.bytes.assign(4096, 0);
  EXPECT_TRUE(attack::scan_descriptors(empty.bytes).empty());
  EXPECT_FALSE(attack::reconstruct_via_descriptor(empty).has_value());
  EXPECT_FALSE(attack::recover_output_scores(empty).has_value());
  EXPECT_TRUE(attack::recover_frame_ring(empty).empty());
}

TEST(DescriptorScan, CorruptedDescriptorIgnored) {
  AttackFixture f;
  const auto found = attack::scan_descriptors(f.dump.bytes);
  ASSERT_FALSE(found.empty());
  // Flip a byte inside the descriptor: CRC check must reject it.
  attack::ScrapedDump damaged = f.dump;
  damaged.bytes[found[0].first + 12] ^= 0x01;
  EXPECT_TRUE(attack::scan_descriptors(damaged.bytes).empty());
  EXPECT_FALSE(attack::reconstruct_via_descriptor(damaged).has_value());
}

TEST(DescriptorScan, DescriptorPointingOutsideDumpRejected) {
  AttackFixture f;
  const auto found = attack::scan_descriptors(f.dump.bytes);
  ASSERT_FALSE(found.empty());
  // Rewrite the descriptor with an input_va below the dump's VA base.
  vitis::DpuDescriptor d = found[0].second;
  d.input_va = f.dump.va_start - 0x10000;
  const auto enc = d.encode();
  attack::ScrapedDump redirected = f.dump;
  std::copy(enc.begin(), enc.end(),
            redirected.bytes.begin() + static_cast<std::ptrdiff_t>(found[0].first));
  EXPECT_FALSE(attack::reconstruct_via_descriptor(redirected).has_value());
}

TEST(DescriptorScan, SanitizedResidueHasNoDescriptors) {
  os::SystemConfig cfg = os::SystemConfig::test_small();
  cfg.sanitize = mem::SanitizePolicy::kZeroOnFree;
  os::PetaLinuxSystem sys{cfg};
  sys.add_user(1000, "victim");
  sys.add_user(1001, "attacker");
  vitis::VitisAiRuntime runtime{sys};
  dbg::SystemDebugger dbg{sys, 1001};
  const vitis::VictimRun run =
      runtime.launch(1000, "resnet50_pt", img::make_test_image(64, 64, 1),
                     "pts/1");
  attack::AddressResolver resolver{dbg};
  const attack::ResolvedTarget target = resolver.resolve_heap(run.pid);
  sys.terminate(run.pid);
  attack::MemoryScraper scraper{dbg};
  const attack::ScrapedDump dump = scraper.scrape(target);
  EXPECT_TRUE(attack::scan_descriptors(dump.bytes).empty());
}

}  // namespace
}  // namespace msa
