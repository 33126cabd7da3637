#include "attack/signature_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "img/score_kernels.h"
#include "util/prng.h"
#include "util/strings.h"
#include "vitis/dpu_runner.h"
#include "vitis/model_zoo.h"

namespace msa::attack {
namespace {

std::vector<std::uint8_t> residue_for(const std::string& model_name) {
  // Realistic residue: the staged strings area plus the serialized model,
  // exactly what the DpuRunner leaves in the heap.
  const vitis::XModel m = vitis::make_zoo_model(model_name);
  std::vector<std::uint8_t> residue(64, 0);  // heap metadata padding
  const auto strings = vitis::DpuRunner::staged_strings(m);
  residue.insert(residue.end(), strings.begin(), strings.end());
  const auto blob = m.serialize();
  residue.insert(residue.end(), blob.begin(), blob.end());
  return residue;
}

TEST(SignatureDb, ZooDbCoversAllModels) {
  EXPECT_EQ(SignatureDb::for_zoo().size(), vitis::zoo_model_names().size());
}

TEST(SignatureDb, IdentifiesCorrectModelFromResidue) {
  const SignatureDb db = SignatureDb::for_zoo();
  for (const auto& name : vitis::zoo_model_names()) {
    const auto residue = residue_for(name);
    EXPECT_EQ(db.identify(residue).value_or("<none>"), name) << name;
  }
}

TEST(SignatureDb, EmptyResidueNoMatch) {
  const SignatureDb db = SignatureDb::for_zoo();
  std::vector<std::uint8_t> zeros(4096, 0);
  EXPECT_FALSE(db.identify(zeros).has_value());
  EXPECT_TRUE(db.scan(zeros).empty());
}

TEST(SignatureDb, ScanRanksByDistinctNeedles) {
  SignatureDb db;
  db.add(Signature{"model_a", {"alpha", "beta"}});
  db.add(Signature{"model_b", {"alpha"}});
  const std::string text = "alpha beta alpha";
  const std::vector<std::uint8_t> bytes{text.begin(), text.end()};
  const auto matches = db.scan(bytes);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].model_name, "model_a");
  EXPECT_EQ(matches[0].distinct_needles, 2u);
  EXPECT_EQ(matches[0].hits, 3u);
  EXPECT_EQ(matches[1].model_name, "model_b");
}

TEST(SignatureDb, OffsetsAreSortedAndCorrect) {
  SignatureDb db;
  db.add(Signature{"m", {"xy"}});
  const std::string text = "..xy....xy";
  const std::vector<std::uint8_t> bytes{text.begin(), text.end()};
  const auto matches = db.scan(bytes);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].offsets, (std::vector<std::size_t>{2, 8}));
}

TEST(SignatureDb, SubstringNamesDontConfuse) {
  // "resnet50_pt" residue must not be identified as squeezenet etc.
  const SignatureDb db = SignatureDb::for_zoo();
  const auto residue = residue_for("resnet50_pt");
  const auto matches = db.scan(residue);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].model_name, "resnet50_pt");
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LT(matches[i].distinct_needles, matches[0].distinct_needles);
  }
}

/// The scan as one util::find_all pass per needle, ranked as scan() ranks.
std::vector<SignatureMatch> reference_scan(const std::vector<Signature>& sigs,
                                           std::span<const std::uint8_t> bytes) {
  std::vector<SignatureMatch> matches;
  for (const Signature& sig : sigs) {
    SignatureMatch m;
    m.model_name = sig.model_name;
    for (const std::string& needle : sig.needles) {
      const auto offsets = util::find_all(bytes, needle);
      if (!offsets.empty()) {
        ++m.distinct_needles;
        m.hits += offsets.size();
        m.offsets.insert(m.offsets.end(), offsets.begin(), offsets.end());
      }
    }
    if (m.hits > 0) {
      std::sort(m.offsets.begin(), m.offsets.end());
      matches.push_back(std::move(m));
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const SignatureMatch& a, const SignatureMatch& b) {
              if (a.distinct_needles != b.distinct_needles) {
                return a.distinct_needles > b.distinct_needles;
              }
              return a.hits > b.hits;
            });
  return matches;
}

void expect_same_matches(const std::vector<SignatureMatch>& got,
                         const std::vector<SignatureMatch>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].model_name, want[i].model_name) << where << " rank " << i;
    EXPECT_EQ(got[i].hits, want[i].hits) << where << " rank " << i;
    EXPECT_EQ(got[i].distinct_needles, want[i].distinct_needles)
        << where << " rank " << i;
    EXPECT_EQ(got[i].offsets, want[i].offsets) << where << " rank " << i;
  }
}

void plant(std::vector<std::uint8_t>& dump, std::size_t at,
           std::string_view needle) {
  if (at + needle.size() > dump.size()) return;
  std::copy(needle.begin(), needle.end(),
            dump.begin() + static_cast<std::ptrdiff_t>(at));
}

std::vector<Signature> zoo_signatures() {
  std::vector<Signature> sigs;
  for (const auto& name : vitis::zoo_model_names()) {
    Signature sig{name, {name, "models/" + name + "/"}};
    if (name.ends_with("_pt")) {
      sig.needles.push_back("torchvision/" + name.substr(0, name.size() - 3));
    }
    sigs.push_back(std::move(sig));
  }
  return sigs;
}

TEST(SignatureDb, ZooSignaturesAreTheReferenceSet) {
  // The reference below rebuilds the zoo db's needles; keep them in step.
  const SignatureDb db = SignatureDb::for_zoo();
  SignatureDb rebuilt;
  for (Signature sig : zoo_signatures()) rebuilt.add(std::move(sig));
  const auto residue = residue_for("resnet50_pt");
  expect_same_matches(db.scan(residue), rebuilt.scan(residue), "zoo");
}

TEST(SignatureDb, SinglePassScanMatchesPerNeedleFindSimdOnAndOff) {
  std::vector<std::vector<Signature>> dbs{zoo_signatures()};
  // A 1-byte needle, an empty one, a needle listed twice by one model and
  // once by another, self-overlapping needles, and 1- and 2-byte needles
  // sharing a lead byte.
  dbs.push_back({Signature{"one", {"a", ""}},
                 Signature{"two", {"abab", "ab", "ab"}},
                 Signature{"three", {"ab", "aaa", "b"}},
                 Signature{"empty", {""}}});
  // Lead bytes spanning the alphabet, so the vector prefilter passes
  // nearly every position of the narrow dumps below.
  std::vector<Signature> wide;
  for (char c = 'a'; c <= 'z'; ++c) {
    wide.push_back(Signature{std::string(1, c) + "model",
                             {std::string{c, 'x'}, std::string{c, c, c}}});
  }
  dbs.push_back(std::move(wide));

  util::Prng prng{0x5CA7};
  for (std::size_t d = 0; d < dbs.size(); ++d) {
    SignatureDb db;
    std::vector<std::string> needles;
    for (const Signature& sig : dbs[d]) {
      db.add(sig);
      for (const auto& n : sig.needles) {
        if (!n.empty()) needles.push_back(n);
      }
    }
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t size =
          trial < 40 ? static_cast<std::size_t>(trial) : 16 + prng.below(3000);
      // The dump is the first `size` bytes; more bytes follow it, so a
      // needle cut off by the dump's end must not match what comes after.
      std::vector<std::uint8_t> bytes(size + 64);
      const std::span<const std::uint8_t> dump{bytes.data(), size};
      // Bytes from a small alphabet half the time, so partial matches
      // and shared prefixes are everywhere.
      const bool narrow = trial % 2 == 0;
      for (auto& b : bytes) {
        b = narrow ? static_cast<std::uint8_t>("abmortxy/_\0"[prng.below(12)])
                   : static_cast<std::uint8_t>(prng.below(256));
      }
      const auto pick = [&] { return needles[prng.below(needles.size())]; };
      for (int k = 0; k < 8; ++k) plant(bytes, prng.below(size + 1), pick());
      plant(bytes, 0, pick());  // at offset 0
      const std::string last = pick();
      if (last.size() <= size) {
        // Ending on the last byte, or one byte past it.
        plant(bytes, size - last.size() + static_cast<std::size_t>(trial % 2),
              last);
      }
      if (size > 0) {  // inside the last 16 bytes, the vector loop's tail
        plant(bytes, size - 1 - prng.below(std::min<std::size_t>(size, 16)),
              pick());
      }
      for (const bool simd : {true, false}) {
        img::set_simd_enabled(simd);
        expect_same_matches(db.scan(dump), reference_scan(dbs[d], dump),
                            "db " + std::to_string(d) + " trial " +
                                std::to_string(trial) +
                                " simd=" + std::to_string(simd));
      }
    }
    // Overlapping zoo needles: "models/mobilenet_v2_tf/" holds the name.
    std::vector<std::uint8_t> dump(64, 0);
    plant(dump, 10, "models/mobilenet_v2_tf/mobilenet_v2_tf");
    plant(dump, 60, "abab");
    for (const bool simd : {true, false}) {
      img::set_simd_enabled(simd);
      expect_same_matches(db.scan(dump), reference_scan(dbs[d], dump),
                          "overlap db " + std::to_string(d));
    }
  }
  img::set_simd_enabled(true);
}

TEST(IdentifyDeep, ParsesFullContainerFromResidue) {
  const auto residue = residue_for("yolov3_tiny_tf");
  const auto deep = SignatureDb::identify_deep(residue);
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->model_name, "yolov3_tiny_tf");
  EXPECT_EQ(deep->param_bytes,
            vitis::make_zoo_model("yolov3_tiny_tf").param_bytes());
  EXPECT_GT(deep->container_offset, 0u);
}

TEST(IdentifyDeep, CorruptedContainerSkipped) {
  auto residue = residue_for("resnet50_pt");
  // Find the magic and damage a byte well inside the container.
  const auto deep_before = SignatureDb::identify_deep(residue);
  ASSERT_TRUE(deep_before.has_value());
  residue[deep_before->container_offset + 40] ^= 0xFF;
  EXPECT_FALSE(SignatureDb::identify_deep(residue).has_value());
}

TEST(IdentifyDeep, NoMagicNoMatch) {
  std::vector<std::uint8_t> junk(10000, 0x5A);
  EXPECT_FALSE(SignatureDb::identify_deep(junk).has_value());
}

TEST(IdentifyDeep, TruncatedContainerRejected) {
  auto residue = residue_for("resnet50_pt");
  const auto deep = SignatureDb::identify_deep(residue);
  ASSERT_TRUE(deep.has_value());
  residue.resize(deep->container_offset + 64);  // cut mid-container
  EXPECT_FALSE(SignatureDb::identify_deep(residue).has_value());
}

class SignatureSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SignatureSweep, StringAndDeepIdentificationAgree) {
  const SignatureDb db = SignatureDb::for_zoo();
  const auto residue = residue_for(GetParam());
  const auto shallow = db.identify(residue);
  const auto deep = SignatureDb::identify_deep(residue);
  ASSERT_TRUE(shallow.has_value());
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(*shallow, deep->model_name);
}

INSTANTIATE_TEST_SUITE_P(AllModels, SignatureSweep,
                         ::testing::ValuesIn(vitis::zoo_model_names()));

}  // namespace
}  // namespace msa::attack
