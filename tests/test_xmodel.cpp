#include "vitis/xmodel.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/prng.h"
#include "vitis/model_zoo.h"

namespace msa::vitis {
namespace {

TEST(XModel, SerializeDeserializeRoundTrip) {
  const XModel original = make_zoo_model("resnet50_pt");
  const auto blob = original.serialize();
  const XModel copy = XModel::deserialize(blob);
  EXPECT_EQ(copy.name(), original.name());
  EXPECT_EQ(copy.framework(), original.framework());
  EXPECT_EQ(copy.input_shape(), original.input_shape());
  EXPECT_EQ(copy.aux_strings(), original.aux_strings());
  EXPECT_EQ(copy.param_bytes(), original.param_bytes());
  EXPECT_EQ(copy.serialize(), blob);  // canonical form is stable
}

TEST(XModel, BytesArePinnedForEveryZooModel) {
  // Captured from the reference encoder: a symmetric encode/decode change
  // would still round-trip, so pin the bytes themselves. The CRC is taken
  // over the container minus its trailing CRC word; a CRC-32 over the
  // whole container is the same residue constant for every valid one.
  const struct {
    const char* name;
    std::size_t size;
    std::uint32_t crc;
  } pinned[] = {
      {"resnet50_pt", 25091u, 0x61075b44u},
      {"squeezenet_pt", 5799u, 0xc3551f8fu},
      {"inception_v1_tf", 14626u, 0xf3bc37a7u},
      {"mobilenet_v2_tf", 9958u, 0xc81d633au},
      {"yolov3_tiny_tf", 6327u, 0x4ffa445cu},
  };
  ASSERT_EQ(zoo_model_names().size(), std::size(pinned));
  for (const auto& p : pinned) {
    const XModel m = make_zoo_model(p.name);
    const std::span<const std::uint8_t> blob = m.serialize();
    ASSERT_EQ(blob.size(), p.size) << p.name;
    EXPECT_EQ(util::crc32(blob.first(blob.size() - 4)), p.crc) << p.name;
    EXPECT_EQ(util::crc32(blob), 0x2144df1cu) << p.name;
  }
}

TEST(XModel, DeserializedModelComputesIdentically) {
  const XModel original = make_zoo_model("squeezenet_pt");
  const XModel copy = XModel::deserialize(original.serialize());
  const img::Image probe = img::make_test_image(64, 64, 123);
  EXPECT_EQ(copy.infer(tensor_from_image(probe)),
            original.infer(tensor_from_image(probe)));
}

TEST(XModel, SerializationIsDeterministic) {
  EXPECT_EQ(make_zoo_model("resnet50_pt").serialize(),
            make_zoo_model("resnet50_pt").serialize());
}

TEST(XModel, CrcTamperDetected) {
  auto blob = make_zoo_model("resnet50_pt").serialize();
  blob[blob.size() / 2] ^= 0x01;
  EXPECT_THROW(XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, BadMagicRejected) {
  auto blob = make_zoo_model("resnet50_pt").serialize();
  blob[0] = 'Y';
  EXPECT_THROW(XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, TrailingBytesRejectedByStrictParse) {
  auto blob = make_zoo_model("resnet50_pt").serialize();
  blob.push_back(0);
  EXPECT_THROW(XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, DeserializeAtFindsContainerInsideResidue) {
  // The forensic path: container embedded mid-buffer among junk.
  const XModel m = make_zoo_model("mobilenet_v2_tf");
  const auto blob = m.serialize();
  // back_inserter rather than range-insert: GCC 12's -Warray-bounds
  // misfires on the latter at -O2 and CI builds with -Werror.
  std::vector<std::uint8_t> residue(100, 0xAB);
  std::copy(blob.begin(), blob.end(), std::back_inserter(residue));
  residue.insert(residue.end(), 50, 0xCD);
  std::size_t consumed = 0;
  const XModel parsed = XModel::deserialize_at(residue, 100, &consumed);
  EXPECT_EQ(parsed.name(), "mobilenet_v2_tf");
  EXPECT_EQ(consumed, blob.size());
}

TEST(XModel, DeserializeAtRejectsCorruptedResidue) {
  const auto blob = make_zoo_model("resnet50_pt").serialize();
  std::vector<std::uint8_t> residue = blob;
  residue[residue.size() - 10] ^= 0xFF;  // damage inside CRC coverage
  EXPECT_THROW(XModel::deserialize_at(residue, 0), std::invalid_argument);
}

TEST(XModel, InstallPathMatchesVitisLayout) {
  const XModel m = make_zoo_model("resnet50_pt");
  EXPECT_EQ(m.install_path(),
            "/usr/share/vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel");
}

TEST(XModel, InferValidatesInputShape) {
  const XModel m = make_zoo_model("resnet50_pt");
  EXPECT_THROW((void)m.infer(Tensor{TensorShape{3, 32, 32}}),
               std::invalid_argument);
}

TEST(XModel, InferReturnsProbabilities) {
  const XModel m = make_zoo_model("resnet50_pt");
  const img::Image in = img::make_test_image(64, 64, 77);
  const auto probs = m.infer(tensor_from_image(in));
  EXPECT_EQ(probs.size(), m.num_classes());
  double sum = 0;
  for (const float p : probs) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(XModel, ConstructorValidatesLayerChain) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(10, 2, false, 0,
                                           std::vector<std::int8_t>(20, 0),
                                           std::vector<std::int32_t>(2, 0)));
  // Input volume 3*64*64 != 10 -> chain doesn't compose.
  EXPECT_THROW((XModel{"bad", "pt", TensorShape{3, 64, 64}, {}, std::move(layers)}),
               std::invalid_argument);
}

TEST(XModel, ConstructorRejectsEmpty) {
  std::vector<std::unique_ptr<Layer>> none;
  EXPECT_THROW((XModel{"m", "pt", TensorShape{3, 64, 64}, {}, std::move(none)}),
               std::invalid_argument);
  std::vector<std::unique_ptr<Layer>> one;
  one.push_back(std::make_unique<GlobalAvgPool>());
  EXPECT_THROW((XModel{"", "pt", TensorShape{3, 64, 64}, {}, std::move(one)}),
               std::invalid_argument);
}

TEST(XModel, FuzzedResidueNeverAllocatesWildly) {
  // Regression: a corrupted layer count field used to be handed to
  // std::vector's constructor before validation, turning noisy residue
  // into a 16 GiB allocation (std::bad_alloc). Every corruption must now
  // surface as std::invalid_argument from a bounds check.
  const auto blob = make_zoo_model("squeezenet_pt").serialize();
  util::Prng prng{20240522};
  for (int trial = 0; trial < 300; ++trial) {
    auto fuzzed = blob;
    // Corrupt 1-4 random bytes anywhere in the container.
    const int flips = 1 + static_cast<int>(prng.below(4));
    for (int i = 0; i < flips; ++i) {
      fuzzed[prng.below(fuzzed.size())] ^= static_cast<std::uint8_t>(prng());
    }
    try {
      (void)XModel::deserialize_at(fuzzed, 0);
      // Parsing may still succeed when the flips landed outside the CRC's
      // sensitivity (they can't — CRC covers everything — unless the
      // flips cancelled); success with a valid CRC is acceptable.
    } catch (const std::invalid_argument&) {
      // expected rejection path
    }
  }
  // Truncated residue: every strict prefix of the container is rejected
  // with std::invalid_argument (EXPECT_THROW fails on any other type).
  // Each prefix is its own allocation so the sanitizers see overreads.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)XModel::deserialize_at(prefix, 0), std::invalid_argument)
        << "prefix " << len << " of " << blob.size();
  }
  EXPECT_THROW((void)XModel::deserialize_at(blob, blob.size() + 1),
               std::invalid_argument);
}

TEST(XModel, HugeLengthFieldsRejectedNotAllocated) {
  // Hand-craft a container prefix whose bias count claims 0xFFFFFFFF.
  const auto blob = make_zoo_model("resnet50_pt").serialize();
  auto bad = blob;
  // The first conv layer's weight count sits after the fixed header; walk
  // to it structurally: find the first kConv2d tag after the shape words.
  // Simpler: slam every aligned u32 in the first 2 KiB to 0xFFFFFFFF one
  // at a time — none may cause an allocation larger than the blob.
  for (std::size_t off = 8; off + 4 < 2048 && off + 4 < bad.size(); off += 4) {
    auto probe = blob;
    probe[off] = 0xFF;
    probe[off + 1] = 0xFF;
    probe[off + 2] = 0xFF;
    probe[off + 3] = 0xFF;
    try {
      (void)XModel::deserialize_at(probe, 0);
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();  // reaching here without bad_alloc is the assertion
}

TEST(XModel, ParsedModelKeepsItsBytesWithoutEncoding) {
  const std::vector<std::uint8_t> blob =
      make_zoo_model("resnet50_pt").serialize();
  obs::Counter& encodes = obs::counter("vitis.xmodel_encodes");
  const std::uint64_t before = encodes.value();
  const XModel copy = XModel::deserialize(blob);
  EXPECT_EQ(encodes.value(), before);
  EXPECT_EQ(copy.serialize(), blob);
}

TEST(XModel, NonCanonicalFlagByteRejected) {
  // A relu flag of 2 under a valid CRC: parsing refuses it, so a parsed
  // container is always its own canonical encoding.
  const XModel m = make_zoo_model("resnet50_pt");
  std::vector<std::uint8_t> blob = m.serialize();
  // The first conv's flag follows the header strings, the input shape,
  // the layer count, the layer kind byte and five u32 geometry fields.
  std::size_t flag = 6 + 2 + 4 + m.name().size() + 4 + m.framework().size() + 4;
  for (const auto& s : m.aux_strings()) flag += 4 + s.size();
  flag += 3 * 4 + 4 + 1 + 5 * 4;
  ASSERT_EQ(blob[flag], 1);
  blob[flag] = 2;
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>{blob}.first(blob.size() - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    blob[blob.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  EXPECT_THROW((void)XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, MagicIsStable) {
  const auto& m = XModel::magic();
  EXPECT_EQ(m[0], 'X');
  EXPECT_EQ(m[4], '1');
  EXPECT_EQ(m[5], '\0');
}

}  // namespace
}  // namespace msa::vitis
