// Axis-schema tests: the registry contract every downstream layer leans
// on (grid enumeration, store manifests, stats marginals, diff keys) —
// typed values, CLI parsing, validation messages, and appliers actually
// reaching their ScenarioConfig knob.
#include "campaign/axis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "campaign/grid.h"

namespace msa::campaign {
namespace {

TEST(AxisValue, FactoriesLabelsAndOrdering) {
  EXPECT_EQ(AxisValue::of_string("baseline").label(), "baseline");
  EXPECT_EQ(AxisValue::of_enum("owner_only").label(), "owner_only");
  EXPECT_EQ(AxisValue::of_number(5.0).label(), "5");
  EXPECT_EQ(AxisValue::of_number(0.5).label(), "0.5");
  EXPECT_EQ(AxisValue::of_bool(true).label(), "1");
  EXPECT_EQ(AxisValue::of_bool(false).label(), "0");

  // The kind is part of identity: string "0" never equals number 0.
  EXPECT_FALSE(AxisValue::of_string("0") == AxisValue::of_number(0.0));
  EXPECT_TRUE(AxisValue::of_number(5.0) == AxisValue::of_number(5.0));

  // Total order: kind first, then payload.
  EXPECT_TRUE(AxisValue::of_string("a") < AxisValue::of_string("b"));
  EXPECT_TRUE(AxisValue::of_number(1.0) < AxisValue::of_number(2.0));
  EXPECT_TRUE(AxisValue::of_bool(false) < AxisValue::of_bool(true));
  EXPECT_TRUE(AxisValue::of_string("z") < AxisValue::of_number(0.0));
}

TEST(AxisCoordinates, FindAndLabel) {
  const std::vector<AxisCoordinate> coords{
      {"defense", AxisValue::of_string("baseline")},
      {"delay_s", AxisValue::of_number(5.0)},
      {"power_cycled", AxisValue::of_bool(true)}};
  ASSERT_NE(find_coord(coords, "delay_s"), nullptr);
  EXPECT_EQ(find_coord(coords, "delay_s")->num, 5.0);
  EXPECT_EQ(find_coord(coords, "scrubber_Bps"), nullptr);
  EXPECT_EQ(coords_label(coords), "defense=baseline/delay_s=5/power_cycled=1");
  EXPECT_EQ(coords_label({}), "");
}

TEST(AxisRegistry, LegacyFourLeadAndEveryAxisIsComplete) {
  const std::vector<AxisDescriptor>& registry = axis_registry();
  ASSERT_GE(registry.size(), 4u);
  for (std::size_t i = 0; i < legacy_axis_names().size(); ++i) {
    EXPECT_EQ(registry[i].name, legacy_axis_names()[i]);
  }
  for (const AxisDescriptor& axis : registry) {
    EXPECT_TRUE(axis.apply) << axis.name;
    EXPECT_TRUE(axis.read) << axis.name;
    EXPECT_FALSE(axis.description.empty()) << axis.name;
    EXPECT_EQ(axis.kind == AxisKind::kEnum, !axis.enum_labels.empty())
        << axis.name;
  }
}

TEST(AxisRegistry, LookupByName) {
  EXPECT_NE(find_axis("power_cycled"), nullptr);
  EXPECT_EQ(find_axis("power_cycled")->kind, AxisKind::kBool);
  EXPECT_EQ(find_axis("no_such_axis"), nullptr);
  EXPECT_EQ(axis_descriptor("firewall").kind, AxisKind::kEnum);
  try {
    (void)axis_descriptor("no_such_axis");
    FAIL() << "unknown axis must throw";
  } catch (const std::invalid_argument& e) {
    // The message lists the known axes so a CLI typo is self-correcting.
    EXPECT_NE(std::string(e.what()).find("known axes:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("corrupt_fraction"),
              std::string::npos);
  }
}

TEST(AxisParsing, TypedTokensRoundTrip) {
  EXPECT_EQ(parse_axis_value(axis_descriptor("model"), "resnet50_pt").str,
            "resnet50_pt");
  EXPECT_EQ(parse_axis_value(axis_descriptor("delay_s"), "2.5").num, 2.5);
  EXPECT_TRUE(parse_axis_value(axis_descriptor("power_cycled"), "true").flag);
  EXPECT_FALSE(parse_axis_value(axis_descriptor("power_cycled"), "0").flag);
  EXPECT_EQ(parse_axis_value(axis_descriptor("firewall"), "disabled").str,
            "disabled");

  // Partial parses, bad bools, and off-label enums are all rejected with
  // the axis name in the message.
  EXPECT_THROW((void)parse_axis_value(axis_descriptor("delay_s"), "5x"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_axis_value(axis_descriptor("delay_s"), ""),
               std::invalid_argument);
  EXPECT_THROW((void)parse_axis_value(axis_descriptor("power_cycled"), "yes"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_axis_value(axis_descriptor("firewall"), "on"),
               std::invalid_argument);
}

TEST(AxisValidation, RangeAndKindChecksName) {
  // Kind mismatch.
  EXPECT_NE(check_axis_value(axis_descriptor("delay_s"),
                             AxisValue::of_string("5")),
            "");
  // Range violations carry the axis name and offending label.
  const std::string err = check_axis_value(axis_descriptor("corrupt_fraction"),
                                           AxisValue::of_number(1.5));
  EXPECT_NE(err.find("corrupt_fraction"), std::string::npos);
  EXPECT_NE(err.find("1.5"), std::string::npos);
  EXPECT_NE(check_axis_value(axis_descriptor("delay_s"),
                             AxisValue::of_number(-1.0)),
            "");
  EXPECT_NE(check_axis_value(axis_descriptor("delay_s"),
                             AxisValue::of_number(std::nan(""))),
            "");
  EXPECT_NE(check_axis_value(axis_descriptor("retention_half_life_s"),
                             AxisValue::of_number(0.0)),
            "");
  EXPECT_NE(check_axis_value(axis_descriptor("image_width"),
                             AxisValue::of_number(2.5)),
            "");
  EXPECT_NE(check_axis_value(axis_descriptor("image_width"),
                             AxisValue::of_number(0.0)),
            "");
  // In-range values pass.
  EXPECT_EQ(check_axis_value(axis_descriptor("corrupt_fraction"),
                             AxisValue::of_number(0.5)),
            "");
  EXPECT_EQ(check_axis_value(axis_descriptor("image_width"),
                             AxisValue::of_number(96.0)),
            "");
}

TEST(AxisAppliers, ReachTheirConfigKnob) {
  attack::ScenarioConfig cfg;

  axis_descriptor("power_cycled").apply(cfg, AxisValue::of_bool(true));
  EXPECT_TRUE(cfg.power_cycled);
  axis_descriptor("delay_s").apply(cfg, AxisValue::of_number(30.0));
  EXPECT_EQ(cfg.attack_delay_s, 30.0);
  axis_descriptor("image_width").apply(cfg, AxisValue::of_number(128.0));
  EXPECT_EQ(cfg.image_width, 128u);
  // Sweeping the corruption fraction implies corruption itself.
  cfg.corrupt_image = false;
  axis_descriptor("corrupt_fraction").apply(cfg, AxisValue::of_number(0.25));
  EXPECT_TRUE(cfg.corrupt_image);
  EXPECT_EQ(cfg.corrupt_fraction, 0.25);
  axis_descriptor("firewall").apply(cfg, AxisValue::of_enum("live_owner_only"));
  EXPECT_EQ(cfg.firewall, dbg::FirewallMode::kLiveOwnerOnly);

  // read() inverts apply() for every registered axis — the property the
  // fingerprint's base-value folding depends on.
  for (const AxisDescriptor& axis : axis_registry()) {
    if (axis.name == "defense") continue;  // presets are one-way deltas
    const AxisValue v = axis.read(cfg);
    attack::ScenarioConfig copy = cfg;
    axis.apply(copy, v);
    EXPECT_TRUE(axis.read(copy) == v) << axis.name;
  }
}

TEST(GridBuilder, GenericAxisSweepEnumeratesAndApplies) {
  attack::ScenarioConfig base;
  base.system = os::SystemConfig::test_small();
  base.image_width = 48;
  base.image_height = 48;

  GridBuilder grid{base};
  grid.defenses({"baseline"})
      .axis("power_cycled",
            {AxisValue::of_bool(false), AxisValue::of_bool(true)})
      .axis("corrupt_fraction",
            {AxisValue::of_number(0.5), AxisValue::of_number(1.0)});
  EXPECT_EQ(grid.size(), 4u);

  const auto cells = grid.build();
  ASSERT_EQ(cells.size(), 4u);
  // Last axis fastest: (pc=0,cf=0.5), (0,1), (1,0.5), (1,1).
  EXPECT_FALSE(cells[0].config.power_cycled);
  EXPECT_TRUE(cells[3].config.power_cycled);
  EXPECT_EQ(cells[0].config.corrupt_fraction, 0.5);
  EXPECT_EQ(cells[1].config.corrupt_fraction, 1.0);
  EXPECT_TRUE(cells[1].config.corrupt_image);  // implied by the sweep
  ASSERT_NE(cells[2].coord("power_cycled"), nullptr);
  EXPECT_TRUE(cells[2].coord("power_cycled")->flag);

  // The schema lists the six axes in order: legacy four then the two
  // appended sweeps.
  const std::vector<AxisSpec>& schema = grid.axis_schema();
  ASSERT_EQ(schema.size(), 6u);
  EXPECT_EQ(schema[4].name, "power_cycled");
  EXPECT_EQ(schema[5].name, "corrupt_fraction");
}

TEST(GridBuilder, ShardedCellsCarryTheRowMajorDigitsOfTheirIndex) {
  attack::ScenarioConfig base;
  base.system = os::SystemConfig::test_small();
  GridBuilder grid{base};
  grid.attack_delays_s({0.0, 2.5, 5.0})
      .scrubber_rates({0.0, 1e6})
      .axis("power_cycled",
            {AxisValue::of_bool(false), AxisValue::of_bool(true)})
      .shard(1, 5);
  const std::vector<AxisSpec>& axes = grid.axis_schema();
  ASSERT_EQ(grid.full_size(), 12u);

  // Every cell of the shard, 1, 6 and 11, carries the coordinates of
  // grid_digits(axes, index).
  const std::vector<CampaignCell> cells = grid.build();
  ASSERT_EQ(cells.size(), 3u);
  std::vector<std::size_t> digits(axes.size());
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const CampaignCell& cell = cells[k];
    EXPECT_EQ(cell.index, 1 + 5 * k);
    grid_digits(axes, cell.index, digits);
    ASSERT_EQ(cell.coords.size(), axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      EXPECT_EQ(cell.coords[a].axis, axes[a].name) << "cell " << cell.index;
      EXPECT_EQ(cell.coords[a].value, axes[a].values[digits[a]])
          << "cell " << cell.index << " axis " << axes[a].name;
    }
  }
  // Row-major over 1 x 1 x 3 x 2 x 2 values, first axis outermost.
  grid_digits(axes, 6, digits);
  EXPECT_EQ(digits, (std::vector<std::size_t>{0, 0, 1, 1, 0}));
  grid_digits(axes, 11, digits);
  EXPECT_EQ(digits, (std::vector<std::size_t>{0, 0, 2, 1, 1}));
}

TEST(GridBuilder, DuplicateAxisValuesRejectedByName) {
  GridBuilder grid{attack::ScenarioConfig{}};
  grid.axis("delay_s", {AxisValue::of_number(5.0), AxisValue::of_number(5.0)});
  try {
    (void)grid.build();
    FAIL() << "duplicate axis values must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("delay_s"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(GridBuilder, BadAxisArgumentsThrow) {
  GridBuilder grid{attack::ScenarioConfig{}};
  EXPECT_THROW(grid.axis("no_such_axis", {AxisValue::of_number(1.0)}),
               std::invalid_argument);
  EXPECT_THROW(grid.axis("power_cycled", {}), std::invalid_argument);
  // Kind mismatch is caught at set time, not build time.
  EXPECT_THROW(grid.axis("power_cycled", {AxisValue::of_number(1.0)}),
               std::invalid_argument);
}

TEST(GridBuilder, FingerprintCoversUnsweptBaseKnobs) {
  attack::ScenarioConfig base;
  base.system = os::SystemConfig::test_small();
  GridBuilder a{base};

  // Same grid over a base differing only in an UNSWEPT registered knob:
  // different experiment, different fingerprint, so the store paths can
  // never collide.
  attack::ScenarioConfig cycled = base;
  cycled.power_cycled = true;
  GridBuilder b{cycled};
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  // Sweeping a non-legacy axis changes the fingerprint too.
  GridBuilder c{base};
  c.axis("power_cycled", {AxisValue::of_bool(false), AxisValue::of_bool(true)});
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  // And the fingerprint is a pure function of (base, schema).
  GridBuilder d{base};
  d.axis("power_cycled", {AxisValue::of_bool(false), AxisValue::of_bool(true)});
  EXPECT_EQ(c.fingerprint(), d.fingerprint());
}

}  // namespace
}  // namespace msa::campaign
