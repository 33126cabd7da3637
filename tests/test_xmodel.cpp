#include "vitis/xmodel.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "util/bytes.h"
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

/// Where a container's fields sit, found by walking its layout.
struct FieldMap {
  std::vector<std::size_t> u32s;   ///< lengths, counts, shapes, geometry, shifts
  std::vector<std::size_t> flags;  ///< relu flag bytes
  std::vector<std::size_t> kinds;  ///< layer kind bytes: where layers start
  std::vector<std::size_t> ends;   ///< the end of every field
  std::size_t layer_count = 0;     ///< the layer count field
  std::size_t crc = 0;             ///< the CRC field: where layers end
};

FieldMap field_map(const std::vector<std::uint8_t>& blob) {
  FieldMap f;
  util::ByteReader in{blob};
  const auto mark = [&] { f.ends.push_back(in.position()); };
  const auto u32 = [&] {
    f.u32s.push_back(in.position());
    const std::uint32_t v = in.u32();
    mark();
    return v;
  };
  const auto bytes = [&](std::size_t n) {
    (void)in.bytes(n);
    mark();
  };
  const auto flag = [&] {
    f.flags.push_back(in.position());
    (void)in.u8();
    mark();
  };
  bytes(6);  // magic
  bytes(2);  // version
  bytes(u32());  // name
  bytes(u32());  // framework
  for (std::uint32_t n = u32(); n > 0; --n) bytes(u32());
  for (int i = 0; i < 3; ++i) (void)u32();  // input shape
  f.layer_count = in.position();
  for (std::uint32_t n = u32(); n > 0; --n) {
    f.kinds.push_back(in.position());
    const auto kind = static_cast<LayerKind>(in.u8());
    mark();
    const auto geometry = [&](int fields) {
      for (int i = 0; i < fields; ++i) (void)u32();
    };
    const auto params = [&] {
      flag();
      (void)u32();  // shift
      bytes(u32());  // weights
      bytes(std::size_t{u32()} * 4);  // bias
    };
    switch (kind) {
      case LayerKind::kConv2d:
        geometry(5);
        params();
        break;
      case LayerKind::kMaxPool2d:
        geometry(2);
        break;
      case LayerKind::kGlobalAvgPool:
        break;
      case LayerKind::kDense:
        geometry(2);
        params();
        break;
    }
  }
  f.crc = in.position();
  bytes(4);
  EXPECT_TRUE(in.done());
  return f;
}

/// Rewrites the CRC of the container at residue[off, off + len) over
/// its (mutated) body, so a mutation gets past the CRC check.
void reseal(std::vector<std::uint8_t>& residue, std::size_t off,
            std::size_t len) {
  const std::uint32_t crc = util::crc32(
      std::span<const std::uint8_t>{residue}.subspan(off, len - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    residue[off + len - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// probe_at and deserialize_at must accept the same inputs, reject the
/// rest with the same error, and agree on what they accept. Returns the
/// parser's error, empty when it accepted.
std::string probe_agrees_with_parser(std::span<const std::uint8_t> residue,
                                     std::size_t off, const std::string& what) {
  std::optional<XModel> model;
  std::size_t consumed = 0;
  std::string parse_error;
  try {
    model.emplace(XModel::deserialize_at(residue, off, &consumed));
  } catch (const std::invalid_argument& e) {
    parse_error = e.what();
  }
  std::optional<ContainerProbe> probe;
  std::string probe_error;
  try {
    probe = XModel::probe_at(residue, off);
  } catch (const std::invalid_argument& e) {
    probe_error = e.what();
  }
  EXPECT_EQ(probe.has_value(), model.has_value()) << what;
  EXPECT_EQ(probe_error, parse_error) << what;
  if (probe && model) {
    EXPECT_EQ(probe->name, model->name()) << what;
    EXPECT_EQ(probe->param_bytes, model->param_bytes()) << what;
    EXPECT_EQ(probe->length, consumed) << what;
  }
  return parse_error;
}

TEST(XModel, ProbeAcceptsExactlyWhatTheParserAccepts) {
  util::Prng prng{0x9A0BE};
  std::size_t accepted = 0;
  std::set<std::string> errors;
  const auto check = [&](std::span<const std::uint8_t> residue,
                         std::size_t off, const std::string& what) {
    const std::string error = probe_agrees_with_parser(residue, off, what);
    if (error.empty()) {
      ++accepted;
    } else {
      errors.insert(error);
    }
  };
  for (const auto& name : zoo_model_names()) {
    const std::vector<std::uint8_t> blob = make_zoo_model(name).serialize();
    const FieldMap fields = field_map(blob);
    // The container sits in residue: junk before it and after it.
    std::vector<std::uint8_t> residue(37);
    for (auto& b : residue) b = static_cast<std::uint8_t>(prng());
    const std::size_t off = residue.size();
    std::copy(blob.begin(), blob.end(), std::back_inserter(residue));
    for (int i = 0; i < 64; ++i) {
      residue.push_back(static_cast<std::uint8_t>(prng()));
    }
    check(residue, off, name + " intact");

    const auto mutated = [&](auto&& mutate, const std::string& what) {
      std::vector<std::uint8_t> r = residue;
      mutate(r);
      check(r, off, name + " " + what);
      reseal(r, off, blob.size());
      check(r, off, name + " " + what + " resealed");
    };
    // Every length, count, shape, geometry and shift field.
    for (const std::size_t at : fields.u32s) {
      std::uint32_t orig = 0;
      for (int i = 3; i >= 0; --i) orig = orig << 8 | blob[at + i];
      for (const std::uint32_t v :
           {0u, 1u, orig - 1, orig + 1, 31u, 32u, 1024u, 1025u, 0x7FFFFFFFu,
            0xFFFFFFFFu}) {
        mutated(
            [&](std::vector<std::uint8_t>& r) {
              for (std::size_t i = 0; i < 4; ++i) {
                r[off + at + i] = static_cast<std::uint8_t>(v >> (8 * i));
              }
            },
            "u32@" + std::to_string(at) + "=" + std::to_string(v));
      }
    }
    for (const std::size_t at : fields.flags) {
      for (const std::uint8_t v : {0, 1, 2, 0xFF}) {
        mutated([&](std::vector<std::uint8_t>& r) { r[off + at] = v; },
                "flag@" + std::to_string(at) + "=" + std::to_string(v));
      }
    }
    for (const std::size_t at : fields.kinds) {
      for (const std::uint8_t v : {0, 1, 2, 3, 4, 5, 0xFF}) {
        mutated([&](std::vector<std::uint8_t>& r) { r[off + at] = v; },
                "kind@" + std::to_string(at) + "=" + std::to_string(v));
      }
    }
    for (std::size_t bit = 0; bit < 8 * 8; ++bit) {  // magic and version
      mutated(
          [&](std::vector<std::uint8_t>& r) {
            r[off + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          },
          "bit " + std::to_string(bit));
    }
    for (int i = 0; i < 200; ++i) {
      const std::size_t bit = prng.below(blob.size() * 8);
      mutated(
          [&](std::vector<std::uint8_t>& r) {
            r[off + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          },
          "bit " + std::to_string(bit));
    }
    // Broken (and unbroken) layer chains: each layer cut out, the layer
    // count lowered to match, and the container resealed.
    for (std::size_t l = 0; l < fields.kinds.size(); ++l) {
      const std::size_t from = fields.kinds[l];
      const std::size_t to =
          l + 1 < fields.kinds.size() ? fields.kinds[l + 1] : fields.crc;
      const auto at = [&](std::size_t i) {
        return residue.begin() + static_cast<std::ptrdiff_t>(off + i);
      };
      std::vector<std::uint8_t> r(residue.begin(), at(from));
      std::copy(at(to), residue.end(), std::back_inserter(r));
      --r[off + fields.layer_count];  // zoo models have under 256 layers
      reseal(r, off, blob.size() - (to - from));
      check(r, off, name + " without layer " + std::to_string(l));
    }
    // Truncations: at every field boundary and inside the CRC.
    for (const std::size_t end : fields.ends) {
      for (const std::size_t cut : {end - 1, end}) {
        const std::vector<std::uint8_t> r(
            residue.begin(),
            residue.begin() + static_cast<std::ptrdiff_t>(off + cut));
        check(r, off, name + " cut at " + std::to_string(cut));
      }
    }
  }
  // The mutations reach every check, the layer parser's included.
  EXPECT_GT(accepted, 100u);
  for (const char* error :
       {"xmodel: bad magic", "xmodel: bad version",
        "xmodel: implausible aux count", "xmodel: implausible layer count",
        "xmodel: bad flag byte", "xmodel: truncated bias",
        "xmodel: unknown layer kind", "xmodel: CRC mismatch",
        "bytes: read past the end of the buffer", "Conv2d: bad geometry",
        "Conv2d: requant shift above 31", "Conv2d: parameter size mismatch",
        "Conv2d: channel mismatch", "Conv2d: input smaller than kernel",
        "MaxPool2d: bad geometry", "Dense: parameter size mismatch",
        "Dense: requant shift above 31", "Dense: input mismatch"}) {
    EXPECT_EQ(errors.count(error), 1u) << error;
  }
}

TEST(XModel, MagicIsStable) {
  const auto& m = XModel::magic();
  EXPECT_EQ(m[0], 'X');
  EXPECT_EQ(m[4], '1');
  EXPECT_EQ(m[5], '\0');
}

}  // namespace
}  // namespace msa::vitis
