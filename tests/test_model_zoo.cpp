#include "vitis/model_zoo.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "obs/trace.h"

namespace msa::vitis {
namespace {

TEST(ModelZoo, ListsFiveModels) {
  EXPECT_EQ(zoo_model_names().size(), 5u);
  EXPECT_TRUE(zoo_has_model("resnet50_pt"));
  EXPECT_TRUE(zoo_has_model("yolov3_tiny_tf"));
  EXPECT_FALSE(zoo_has_model("bert_large"));
}

TEST(ModelZoo, UnknownModelThrows) {
  EXPECT_THROW(make_zoo_model("not_a_model"), std::invalid_argument);
}

TEST(ModelZoo, WeightsDeterministicPerName) {
  EXPECT_EQ(make_zoo_model("resnet50_pt").serialize(),
            make_zoo_model("resnet50_pt").serialize());
}

TEST(ModelZoo, ModelsAreDistinguishableBySize) {
  // Heap layouts must differ per model (the paper identifies models partly
  // by their memory footprints).
  std::set<std::size_t> sizes;
  for (const auto& name : zoo_model_names()) {
    sizes.insert(make_zoo_model(name).serialize().size());
  }
  EXPECT_EQ(sizes.size(), zoo_model_names().size());
}

TEST(ModelZoo, AuxStringsContainIdentifyingNames) {
  for (const auto& name : zoo_model_names()) {
    const XModel m = make_zoo_model(name);
    bool has_path = false;
    for (const auto& s : m.aux_strings()) {
      if (s.find(name) != std::string::npos) has_path = true;
    }
    EXPECT_TRUE(has_path) << name;
  }
}

TEST(ModelZoo, PtModelsCarryTorchvisionString) {
  const XModel m = make_zoo_model("resnet50_pt");
  bool found = false;
  for (const auto& s : m.aux_strings()) {
    if (s == "torchvision/resnet50") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModelZoo, TfModelsCarryTensorflowString) {
  const XModel m = make_zoo_model("inception_v1_tf");
  bool found = false;
  for (const auto& s : m.aux_strings()) {
    if (s.find("tensorflow") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModelZoo, AllModelsRunInference) {
  const img::Image in = img::make_test_image(64, 64, 5);
  for (const auto& name : zoo_model_names()) {
    const XModel m = make_zoo_model(name);
    const auto probs = m.infer(tensor_from_image(in));
    EXPECT_EQ(probs.size(), m.num_classes()) << name;
    EXPECT_GT(m.num_classes(), 1u) << name;
  }
}

TEST(ModelZoo, DifferentModelsProduceDifferentOutputs) {
  const img::Image in = img::make_test_image(64, 64, 5);
  EXPECT_NE(make_zoo_model("resnet50_pt").infer(tensor_from_image(in)),
            make_zoo_model("squeezenet_pt").infer(tensor_from_image(in)));
}

/// The trace span name each layer kind's forward() records.
const char* span_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d:
      return "conv2d";
    case LayerKind::kMaxPool2d:
    case LayerKind::kGlobalAvgPool:
      return "pool";
    case LayerKind::kDense:
      return "dense";
  }
  return "?";
}

TEST(ModelZoo, TracedInferRecordsOneVitisSpanPerLayer) {
  const img::Image image = img::make_test_image(64, 64, 5);
  for (const auto& name : zoo_model_names()) {
    const XModel m = make_zoo_model(name);
    obs::Trace::clear();
    obs::Trace::enable();
    (void)m.infer(tensor_from_image(image));
    obs::Trace::disable();
    std::vector<obs::TraceSpan> spans;
    for (const obs::ThreadTrace& t : obs::Trace::snapshot()) {
      for (const obs::TraceSpan& s : t.spans) {
        if (std::strcmp(s.category, "vitis") == 0) spans.push_back(s);
      }
    }
    obs::Trace::clear();
    // Spans are kept in close order; a nested span would close before
    // its parent and so start before the previous span ended.
    ASSERT_EQ(spans.size(), m.layers().size()) << name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_STREQ(spans[i].name, span_name(m.layers()[i]->kind()))
          << name << " layer " << i;
      if (i > 0) {
        EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns + spans[i - 1].dur_ns)
            << name << " layer " << i << " nests in or overlaps layer " << i - 1;
      }
    }
  }
}

class ZooSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSweep, SerializeRoundTripEveryModel) {
  const XModel m = make_zoo_model(GetParam());
  const XModel copy = XModel::deserialize(m.serialize());
  EXPECT_EQ(copy.name(), m.name());
  EXPECT_EQ(copy.param_bytes(), m.param_bytes());
  const img::Image in = img::make_test_image(64, 64, 31);
  EXPECT_EQ(copy.infer(tensor_from_image(in)), m.infer(tensor_from_image(in)));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSweep,
                         ::testing::Values("resnet50_pt", "squeezenet_pt",
                                           "inception_v1_tf", "mobilenet_v2_tf",
                                           "yolov3_tiny_tf"));

}  // namespace
}  // namespace msa::vitis
