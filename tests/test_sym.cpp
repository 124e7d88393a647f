#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/macros.hpp"
#include "sym/point_group.hpp"
#include "sym/symop.hpp"
#include "sym/synthetic_dataset.hpp"

namespace matsci::sym {
namespace {

using core::Mat3;
using core::Vec3;

TEST(SymOp, RotationPreservesLengthAndAxis) {
  const Mat3 r = rotation({0, 0, 1}, M_PI / 3.0);
  EXPECT_TRUE(is_orthogonal(r));
  const Vec3 v = {1.0, 2.0, 3.0};
  EXPECT_NEAR(core::norm(core::matvec(r, v)), core::norm(v), 1e-12);
  // The axis is fixed.
  const Vec3 axis = {0, 0, 4.2};
  const Vec3 rotated = core::matvec(r, axis);
  EXPECT_NEAR(rotated.z, 4.2, 1e-12);
  EXPECT_NEAR(rotated.x, 0.0, 1e-12);
}

TEST(SymOp, RotationOrder) {
  // C4 applied four times = identity.
  const Mat3 c4 = rotation_z(4);
  Mat3 acc = core::identity3();
  for (int i = 0; i < 4; ++i) acc = core::matmul3(c4, acc);
  EXPECT_TRUE(ops_equal(acc, core::identity3()));
  Mat3 c4_2 = core::matmul3(c4, c4);
  EXPECT_FALSE(ops_equal(c4_2, core::identity3()));
}

TEST(SymOp, ReflectionIsInvolution) {
  const Mat3 m = reflection({1.0, 1.0, 0.0});
  EXPECT_TRUE(is_orthogonal(m));
  EXPECT_TRUE(ops_equal(core::matmul3(m, m), core::identity3()));
  EXPECT_NEAR(core::det3(m), -1.0, 1e-12);
}

TEST(SymOp, InversionProperties) {
  const Mat3 inv = inversion();
  EXPECT_NEAR(core::det3(inv), -1.0, 1e-12);
  EXPECT_TRUE(ops_equal(core::matmul3(inv, inv), core::identity3()));
  const Vec3 v = {1, -2, 3};
  const Vec3 iv = core::matvec(inv, v);
  EXPECT_NEAR(iv.x, -1.0, 1e-12);
  EXPECT_NEAR(iv.y, 2.0, 1e-12);
}

TEST(SymOp, ImproperRotationOrder) {
  // S4 has order 4; S4² = C2.
  const Mat3 s4 = improper_rotation_z(4);
  const Mat3 s4_2 = core::matmul3(s4, s4);
  EXPECT_TRUE(ops_equal(s4_2, rotation_z(2), 1e-9));
  Mat3 acc = core::identity3();
  for (int i = 0; i < 4; ++i) acc = core::matmul3(s4, acc);
  EXPECT_TRUE(ops_equal(acc, core::identity3()));
}

TEST(SymOp, CloseGroupCyclic) {
  const auto ops = close_group({rotation_z(5)});
  EXPECT_EQ(ops.size(), 5u);
}

TEST(SymOp, CloseGroupRejectsNonOrthogonal) {
  Mat3 bad = core::identity3();
  bad[0][0] = 2.0;
  EXPECT_THROW(close_group({bad}), matsci::Error);
}

TEST(SymOp, CloseGroupRejectsNonClosing) {
  // An irrational-angle rotation never closes.
  EXPECT_THROW(close_group({rotation({0, 0, 1}, 1.0)}), matsci::Error);
}

TEST(PointGroups, CatalogHas32Groups) {
  EXPECT_EQ(num_point_groups(), 32);
}

struct GroupOrderCase {
  const char* name;
  std::size_t order;
};

// gtest would otherwise print the raw bytes, pointer included, into the
// discovered ctest name, which then changes with every process's load address.
void PrintTo(const GroupOrderCase& c, std::ostream* os) { *os << c.name; }

class PointGroupOrderTest : public ::testing::TestWithParam<GroupOrderCase> {};

TEST_P(PointGroupOrderTest, OrderMatchesTextbook) {
  const auto& [name, order] = GetParam();
  const PointGroup& g = point_group_by_name(name);
  EXPECT_EQ(g.order(), order) << name;
  // Every element orthogonal; identity present; closed under product.
  bool has_identity = false;
  for (const Mat3& op : g.ops) {
    EXPECT_TRUE(is_orthogonal(op, 1e-6));
    if (ops_equal(op, core::identity3(), 1e-6)) has_identity = true;
  }
  EXPECT_TRUE(has_identity);
  for (const Mat3& a : g.ops) {
    for (const Mat3& b : g.ops) {
      const Mat3 p = core::matmul3(a, b);
      bool found = false;
      for (const Mat3& c : g.ops) {
        if (ops_equal(p, c, 1e-6)) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << name << " not closed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGroups, PointGroupOrderTest,
    ::testing::Values(GroupOrderCase{"C1", 1}, GroupOrderCase{"Ci", 2},
                      GroupOrderCase{"Cs", 2}, GroupOrderCase{"C2", 2},
                      GroupOrderCase{"C3", 3}, GroupOrderCase{"C4", 4},
                      GroupOrderCase{"C6", 6}, GroupOrderCase{"C2v", 4},
                      GroupOrderCase{"C6v", 12}, GroupOrderCase{"C4h", 8},
                      GroupOrderCase{"D2", 4}, GroupOrderCase{"D6", 12},
                      GroupOrderCase{"D4h", 16}, GroupOrderCase{"D6h", 24},
                      GroupOrderCase{"D2d", 8}, GroupOrderCase{"D3d", 12},
                      GroupOrderCase{"S4", 4}, GroupOrderCase{"S6", 6},
                      GroupOrderCase{"T", 12}, GroupOrderCase{"Th", 24},
                      GroupOrderCase{"Td", 24}, GroupOrderCase{"O", 24},
                      GroupOrderCase{"Oh", 48}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(PointGroups, UnknownNameThrows) {
  EXPECT_THROW(point_group_by_name("K7"), matsci::Error);
}

TEST(SyntheticDataset, DeterministicInIndex) {
  SyntheticPointGroupDataset ds(100, 7);
  const auto a = ds.get(13);
  const auto b = ds.get(13);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_NEAR(core::norm(a.positions[i] - b.positions[i]), 0.0, 1e-12);
  }
  EXPECT_EQ(a.class_targets.at("point_group"),
            b.class_targets.at("point_group"));
}

TEST(SyntheticDataset, LabelsInRangeAndUniformish) {
  SyntheticPointGroupDataset ds(3200, 21);
  std::map<std::int64_t, int> counts;
  for (std::int64_t i = 0; i < 3200; ++i) {
    const std::int64_t y = ds.get(i).class_targets.at("point_group");
    ASSERT_GE(y, 0);
    ASSERT_LT(y, ds.num_classes());
    ++counts[y];
  }
  // All 32 classes appear, roughly uniformly (expected 100 each).
  EXPECT_EQ(static_cast<std::int64_t>(counts.size()), ds.num_classes());
  for (const auto& [_, c] : counts) {
    EXPECT_GT(c, 50);
    EXPECT_LT(c, 200);
  }
}

TEST(SyntheticDataset, PointCountBounded) {
  SyntheticPointGroupOptions opts;
  SyntheticPointGroupDataset ds(200, 3, opts);
  for (std::int64_t i = 0; i < 200; ++i) {
    const auto s = ds.get(i);
    EXPECT_GE(s.num_atoms(), 1);
    EXPECT_LE(s.num_atoms(), opts.max_points);
    EXPECT_FALSE(s.lattice.has_value());
    for (const std::int64_t z : s.species) EXPECT_EQ(z, 0);
  }
}

TEST(SyntheticDataset, GeneratedCloudRespectsGroupSymmetry) {
  // Without jitter or random orientation, the cloud must be invariant
  // (as a set) under every operation of its group.
  SyntheticPointGroupOptions opts;
  opts.jitter_sigma = 0.0;
  opts.random_orientation = false;
  core::RngEngine rng(99);
  const PointGroup& g = point_group_by_name("D4h");
  const auto sample =
      SyntheticPointGroupDataset::generate(g, 0, rng, opts);
  for (const Mat3& op : g.ops) {
    for (const Vec3& p : sample.positions) {
      const Vec3 image = core::matvec(op, p);
      double best = 1e9;
      for (const Vec3& q : sample.positions) {
        best = std::min(best, core::norm(image - q));
      }
      EXPECT_LT(best, 1e-6) << "orbit image missing under " << g.name;
    }
  }
}

TEST(SyntheticDataset, OutOfRangeIndexThrows) {
  SyntheticPointGroupDataset ds(10, 1);
  EXPECT_THROW(ds.get(-1), matsci::Error);
  EXPECT_THROW(ds.get(10), matsci::Error);
}

}  // namespace
}  // namespace matsci::sym
