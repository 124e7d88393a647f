#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/macros.hpp"
#include "materials/carolina.hpp"
#include "materials/elements.hpp"
#include "materials/lips.hpp"
#include "materials/materials_project.hpp"
#include "materials/ocp.hpp"
#include "materials/property_oracle.hpp"
#include "materials/structure.hpp"

namespace matsci::materials {
namespace {

TEST(Elements, TableLookups) {
  EXPECT_STREQ(element(1).symbol, "H");
  EXPECT_STREQ(element(26).symbol, "Fe");
  EXPECT_STREQ(element(79).symbol, "Au");
  EXPECT_NEAR(element(8).electronegativity, 3.44, 1e-6);
  EXPECT_NEAR(element(3).covalent_radius, 1.28, 1e-6);
  EXPECT_THROW(element(0), matsci::Error);
  EXPECT_THROW(element(87), matsci::Error);
}

TEST(Elements, SymbolRoundTrip) {
  for (const std::int64_t z : {1, 6, 8, 14, 26, 47, 79, 86}) {
    EXPECT_EQ(atomic_number(element(z).symbol), z);
  }
  EXPECT_THROW(atomic_number("Xx"), matsci::Error);
}

TEST(Structure, LatticeConstructorsAndVolume) {
  Structure s;
  s.lattice = cubic_lattice(4.0);
  EXPECT_NEAR(s.volume(), 64.0, 1e-9);
  s.lattice = orthorhombic_lattice(2.0, 3.0, 4.0);
  EXPECT_NEAR(s.volume(), 24.0, 1e-9);
  s.lattice = hexagonal_lattice(3.0, 5.0);
  EXPECT_NEAR(s.volume(), 3.0 * 3.0 * std::sqrt(3.0) / 2.0 * 5.0, 1e-9);
  // Cubic via triclinic with right angles.
  s.lattice = triclinic_lattice(4, 4, 4, M_PI / 2, M_PI / 2, M_PI / 2);
  EXPECT_NEAR(s.volume(), 64.0, 1e-6);
  EXPECT_THROW(cubic_lattice(-1.0), matsci::Error);
}

TEST(Structure, CartesianAndDistances) {
  Structure s;
  s.lattice = cubic_lattice(10.0);
  s.frac = {{0.05, 0.0, 0.0}, {0.95, 0.0, 0.0}};
  s.species = {11, 17};
  const auto cart = s.cartesian();
  EXPECT_NEAR(cart[0].x, 0.5, 1e-9);
  EXPECT_NEAR(cart[1].x, 9.5, 1e-9);
  // Minimal-image distance wraps around.
  EXPECT_NEAR(s.distance(0, 1), 1.0, 1e-9);
  EXPECT_NEAR(s.nearest_neighbor_distance(0), 1.0, 1e-9);
  EXPECT_NEAR(s.min_interatomic_distance(), 1.0, 1e-9);
}

TEST(Structure, SupercellMultiplies) {
  Structure s;
  s.lattice = cubic_lattice(3.0);
  s.frac = {{0.0, 0.0, 0.0}, {0.5, 0.5, 0.5}};
  s.species = {26, 26};
  Structure sc = s.supercell(2, 2, 1);
  EXPECT_EQ(sc.num_atoms(), 8);
  EXPECT_NEAR(sc.volume(), 4.0 * s.volume(), 1e-9);
  // Nearest-neighbor geometry is preserved.
  EXPECT_NEAR(sc.min_interatomic_distance(), s.min_interatomic_distance(),
              1e-9);
  EXPECT_THROW(s.supercell(0, 1, 1), matsci::Error);
}

TEST(Structure, WrapNormalizesFractionals) {
  Structure s;
  s.lattice = cubic_lattice(5.0);
  s.frac = {{1.25, -0.25, 3.0}};
  s.species = {6};
  s.wrap();
  EXPECT_NEAR(s.frac[0].x, 0.25, 1e-9);
  EXPECT_NEAR(s.frac[0].y, 0.75, 1e-9);
  EXPECT_NEAR(s.frac[0].z, 0.0, 1e-9);
}

TEST(Structure, ValidateCatchesMismatch) {
  Structure s;
  s.lattice = cubic_lattice(5.0);
  s.frac = {{0, 0, 0}};
  EXPECT_THROW(s.validate(), matsci::Error);  // species missing
}

class RandomCrystalTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCrystalTest, SatisfiesInvariants) {
  core::RngEngine rng(static_cast<std::uint64_t>(GetParam()));
  RandomCrystalOptions opts;
  opts.palette = {8, 14, 26};
  opts.systems = {LatticeSystem::kCubic, LatticeSystem::kTriclinic,
                  LatticeSystem::kHexagonal};
  Structure s = random_crystal(rng, opts);
  s.validate();
  EXPECT_GE(s.num_atoms(), 1);
  if (s.num_atoms() >= 2) {
    EXPECT_GE(s.min_interatomic_distance(), opts.min_distance);
  }
  for (const auto& f : s.frac) {
    EXPECT_GE(f.x, 0.0);
    EXPECT_LT(f.x, 1.0);
  }
  for (const std::int64_t z : s.species) {
    EXPECT_TRUE(z == 8 || z == 14 || z == 26);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCrystalTest,
                         ::testing::Range(1, 17));

TEST(PropertyOracle, LabelsDeterministic) {
  PropertyOracle oracle(42);
  core::RngEngine rng(5);
  RandomCrystalOptions opts;
  opts.palette = MaterialsProjectDataset::palette();
  opts.systems = {LatticeSystem::kCubic};
  Structure s = random_crystal(rng, opts);
  EXPECT_DOUBLE_EQ(oracle.band_gap(s), oracle.band_gap(s));
  EXPECT_DOUBLE_EQ(oracle.formation_energy(s), oracle.formation_energy(s));
  EXPECT_EQ(oracle.is_stable(s), oracle.is_stable(s));
}

TEST(PropertyOracle, LabelRangesPhysical) {
  PropertyOracle oracle(1);
  core::RngEngine rng(2);
  RandomCrystalOptions opts;
  opts.palette = MaterialsProjectDataset::palette();
  opts.systems = {LatticeSystem::kCubic, LatticeSystem::kOrthorhombic};
  for (int i = 0; i < 32; ++i) {
    Structure s = random_crystal(rng, opts);
    const double gap = oracle.band_gap(s);
    EXPECT_GE(gap, 0.0);
    EXPECT_LE(gap, 8.0);
    const double ef = oracle.formation_energy(s);
    EXPECT_GE(ef, -4.0);
    EXPECT_LE(ef, 2.0);
    EXPECT_TRUE(std::isfinite(oracle.fermi_energy(s)));
  }
}

TEST(PropertyOracle, FeaturesSaneOnKnownCrystal) {
  // Rock-salt NaCl: a = 5.64 Å, coordination 6, nn distance a/2.
  Structure s;
  s.lattice = cubic_lattice(5.64);
  s.frac = {{0, 0, 0},     {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5},
            {0.5, 0, 0},   {0, 0.5, 0},   {0, 0, 0.5},   {0.5, 0.5, 0.5}};
  s.species = {11, 11, 11, 11, 17, 17, 17, 17};
  const StructureFeatures f = compute_features(s);
  EXPECT_EQ(f.num_atoms, 8);
  EXPECT_NEAR(f.mean_nn_distance, 5.64 / 2.0, 1e-6);
  EXPECT_NEAR(f.mean_electronegativity, (0.93 + 3.16) / 2.0, 1e-6);
  EXPECT_NEAR(f.composition_entropy, std::log(2.0), 1e-9);
  EXPECT_GT(f.mean_coordination, 4.0);  // 6 neighbors within bond length
  EXPECT_NEAR(f.number_density, 8.0 / std::pow(5.64, 3), 1e-9);
}

TEST(PropertyOracle, AdsorptionEnergyBindsCloserAdsorbates) {
  PropertyOracle oracle(3, /*noise_scale=*/0.0);
  auto make = [](double height) {
    Structure s;
    s.lattice = orthorhombic_lattice(5.0, 5.0, 20.0);
    s.frac = {{0.25, 0.25, 0.1}, {0.75, 0.25, 0.1}, {0.25, 0.75, 0.1},
              {0.75, 0.75, 0.1}};
    s.species = {78, 78, 78, 78};
    s.frac.push_back({0.25, 0.25, (2.0 + height) / 20.0});
    s.species.push_back(8);
    return s;
  };
  const std::vector<std::int64_t> ads = {4};
  const double near = oracle.adsorption_energy(make(1.8), ads);
  const double far = oracle.adsorption_energy(make(6.0), ads);
  EXPECT_LT(near, far);   // closer = more strongly bound
  EXPECT_NEAR(far, 0.0, 0.1);  // out of range ≈ no interaction
  EXPECT_THROW(oracle.adsorption_energy(make(2.0), {}), matsci::Error);
}

struct DatasetCase {
  const char* name;
  std::function<std::unique_ptr<data::StructureDataset>()> make;
  std::vector<std::string> scalar_keys;
  std::vector<std::string> class_keys;
  bool periodic;
};

// Keeps the discovered ctest name free of pointer bytes (see test_sym.cpp).
void PrintTo(const DatasetCase& c, std::ostream* os) { *os << c.name; }

class DatasetContractTest : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(DatasetContractTest, FulfillsContract) {
  const DatasetCase& tc = GetParam();
  auto ds = tc.make();
  ASSERT_GE(ds->size(), 8);
  for (const std::int64_t i : {std::int64_t{0}, ds->size() / 2, ds->size() - 1}) {
    const data::StructureSample s = ds->get(i);
    EXPECT_GT(s.num_atoms(), 0);
    EXPECT_EQ(s.species.size(), s.positions.size());
    EXPECT_EQ(s.lattice.has_value(), tc.periodic);
    for (const std::string& k : tc.scalar_keys) {
      ASSERT_TRUE(s.scalar_targets.count(k)) << tc.name << " missing " << k;
      EXPECT_TRUE(std::isfinite(s.scalar_targets.at(k)));
    }
    for (const std::string& k : tc.class_keys) {
      ASSERT_TRUE(s.class_targets.count(k)) << tc.name << " missing " << k;
    }
    // Determinism.
    const data::StructureSample s2 = ds->get(i);
    ASSERT_EQ(s2.num_atoms(), s.num_atoms());
    for (std::int64_t a = 0; a < s.num_atoms(); ++a) {
      EXPECT_EQ(s2.species[static_cast<std::size_t>(a)],
                s.species[static_cast<std::size_t>(a)]);
      EXPECT_NEAR(core::norm(s2.positions[static_cast<std::size_t>(a)] -
                             s.positions[static_cast<std::size_t>(a)]),
                  0.0, 1e-12);
    }
  }
  EXPECT_THROW(ds->get(ds->size()), matsci::Error);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, DatasetContractTest,
    ::testing::Values(
        DatasetCase{"MaterialsProject",
                    [] {
                      return std::make_unique<MaterialsProjectDataset>(32, 1);
                    },
                    {"band_gap", "efermi", "formation_energy"},
                    {"stability"},
                    true},
        DatasetCase{"Carolina",
                    [] {
                      return std::make_unique<CarolinaMaterialsDataset>(32, 2);
                    },
                    {"formation_energy"},
                    {},
                    true},
        DatasetCase{"LiPS",
                    [] { return std::make_unique<LiPSDataset>(16, 3); },
                    {"energy"},
                    {},
                    true},
        DatasetCase{"OC20",
                    [] {
                      return std::make_unique<OCPDataset>(16, 4,
                                                          OCPFlavor::kOC20);
                    },
                    {"adsorption_energy"},
                    {},
                    true},
        DatasetCase{"OC22",
                    [] {
                      return std::make_unique<OCPDataset>(16, 5,
                                                          OCPFlavor::kOC22);
                    },
                    {"adsorption_energy"},
                    {},
                    true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(MaterialsProject, BroadDiversity) {
  MaterialsProjectDataset ds(64, 11);
  std::set<std::int64_t> species_seen;
  std::set<std::int64_t> stability_seen;
  for (std::int64_t i = 0; i < 64; ++i) {
    const auto s = ds.get(i);
    species_seen.insert(s.species.begin(), s.species.end());
    stability_seen.insert(s.class_targets.at("stability"));
  }
  EXPECT_GT(species_seen.size(), 15u);   // wide palette exercised
  EXPECT_EQ(stability_seen.size(), 2u);  // both classes occur
}

TEST(Carolina, CubicCellsOnly) {
  CarolinaMaterialsDataset ds(16, 7);
  for (std::int64_t i = 0; i < 16; ++i) {
    const Structure s = ds.structure_at(i);
    const double a = core::norm(s.lattice[0]);
    EXPECT_NEAR(core::norm(s.lattice[1]), a, 1e-9);
    EXPECT_NEAR(core::norm(s.lattice[2]), a, 1e-9);
    EXPECT_NEAR(core::dot(s.lattice[0], s.lattice[1]), 0.0, 1e-9);
  }
}

TEST(LiPS, FixedCompositionTrajectory) {
  LiPSDataset ds(12, 9);
  const auto first = ds.get(0);
  std::multiset<std::int64_t> comp(first.species.begin(),
                                   first.species.end());
  for (std::int64_t i = 1; i < 12; ++i) {
    const auto s = ds.get(i);
    // Same atoms, different positions (it is a trajectory).
    EXPECT_EQ(std::multiset<std::int64_t>(s.species.begin(),
                                          s.species.end()),
              comp);
  }
  // Positions actually move between frames.
  const auto later = ds.get(11);
  double moved = 0.0;
  for (std::size_t a = 0; a < first.positions.size(); ++a) {
    moved += core::norm(later.positions[a] - first.positions[a]);
  }
  EXPECT_GT(moved, 1e-3);
  // Only Li / P / S.
  for (const std::int64_t z : first.species) {
    EXPECT_TRUE(z == 3 || z == 15 || z == 16);
  }
}

TEST(OCP, SlabPlusAdsorbateStructure) {
  OCPDataset ds(8, 13, OCPFlavor::kOC20);
  std::vector<std::int64_t> ads;
  const Structure s = ds.structure_at(0, ads);
  EXPECT_GE(s.num_atoms(), 13);  // 12 slab atoms + adsorbate
  EXPECT_FALSE(ads.empty());
  // Adsorbate sits above the top slab layer.
  const auto cart = s.cartesian();
  double top_slab = 0.0;
  for (std::int64_t i = 0; i < s.num_atoms(); ++i) {
    if (std::find(ads.begin(), ads.end(), i) != ads.end()) continue;
    top_slab = std::max(top_slab, cart[static_cast<std::size_t>(i)].z);
  }
  for (const std::int64_t a : ads) {
    EXPECT_GT(cart[static_cast<std::size_t>(a)].z, top_slab);
  }
}

TEST(OCP, OC22ContainsOxygenInSlab) {
  OCPDataset ds(24, 15, OCPFlavor::kOC22);
  bool oxide_surface = false;
  for (std::int64_t i = 0; i < 24; ++i) {
    std::vector<std::int64_t> ads;
    const Structure s = ds.structure_at(i, ads);
    for (std::int64_t a = 0; a < s.num_atoms(); ++a) {
      const bool is_ads = std::find(ads.begin(), ads.end(), a) != ads.end();
      if (!is_ads && s.species[static_cast<std::size_t>(a)] == 8) {
        oxide_surface = true;
      }
    }
  }
  EXPECT_TRUE(oxide_surface);
}

}  // namespace
}  // namespace matsci::materials
