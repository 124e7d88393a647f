#include "sym/point_group.hpp"

#include <mutex>
#include <string>

#include "core/macros.hpp"
#include "sym/symop.hpp"

namespace matsci::sym {

namespace {

PointGroup make_group(std::string name,
                      const std::vector<core::Mat3>& generators,
                      std::size_t expected_order) {
  PointGroup g;
  g.name = std::move(name);
  g.ops = close_group(generators);
  MATSCI_CHECK(g.ops.size() == expected_order,
               "point group " << g.name << " closed to " << g.ops.size()
                              << " ops, expected " << expected_order);
  return g;
}

/// Schoenflies name such as "C4v". Built with append: GCC 12 reports a
/// false -Wrestrict inside libstdc++ for "C" + std::to_string(n).
std::string schoenflies(char family, std::int64_t n, const char* suffix = "") {
  std::string name(1, family);
  name.append(std::to_string(n)).append(suffix);
  return name;
}

std::vector<PointGroup> build_catalog() {
  using core::Mat3;
  using core::Vec3;

  const Mat3 sigma_h = reflection({0.0, 0.0, 1.0});   // xy plane
  const Mat3 sigma_v = reflection({0.0, 1.0, 0.0});   // xz plane
  const Mat3 c2x = rotation({1.0, 0.0, 0.0}, M_PI);
  const Mat3 inv = inversion();
  // Cubic generators: threefold about the body diagonal is the cyclic
  // coordinate permutation (x,y,z) -> (z,x,y).
  const Mat3 c3_111 = core::mat3_rows({0.0, 0.0, 1.0}, {1.0, 0.0, 0.0},
                                      {0.0, 1.0, 0.0});
  const Mat3 c4z = rotation_z(4);
  const Mat3 c2z = rotation_z(2);
  const Mat3 s4z = improper_rotation_z(4);

  std::vector<PointGroup> catalog;
  catalog.reserve(32);

  // Triclinic / monoclinic low-symmetry groups.
  catalog.push_back(make_group("C1", {}, 1));
  catalog.push_back(make_group("Ci", {inv}, 2));
  catalog.push_back(make_group("Cs", {sigma_h}, 2));

  // Cyclic Cn.
  for (const std::int64_t n : {2, 3, 4, 6}) {
    catalog.push_back(make_group(schoenflies('C', n), {rotation_z(n)},
                                 static_cast<std::size_t>(n)));
  }
  // Pyramidal Cnv.
  for (const std::int64_t n : {2, 3, 4, 6}) {
    catalog.push_back(make_group(schoenflies('C', n, "v"),
                                 {rotation_z(n), sigma_v},
                                 static_cast<std::size_t>(2 * n)));
  }
  // Cnh (rotation + horizontal mirror).
  for (const std::int64_t n : {2, 3, 4, 6}) {
    catalog.push_back(make_group(schoenflies('C', n, "h"),
                                 {rotation_z(n), sigma_h},
                                 static_cast<std::size_t>(2 * n)));
  }
  // Dihedral Dn.
  for (const std::int64_t n : {2, 3, 4, 6}) {
    catalog.push_back(make_group(schoenflies('D', n),
                                 {rotation_z(n), c2x},
                                 static_cast<std::size_t>(2 * n)));
  }
  // Prismatic Dnh.
  for (const std::int64_t n : {2, 3, 4, 6}) {
    catalog.push_back(make_group(schoenflies('D', n, "h"),
                                 {rotation_z(n), c2x, sigma_h},
                                 static_cast<std::size_t>(4 * n)));
  }
  // Antiprismatic Dnd (S_2n axis + perpendicular C2).
  for (const std::int64_t n : {2, 3}) {
    catalog.push_back(make_group(schoenflies('D', n, "d"),
                                 {improper_rotation_z(2 * n), c2x},
                                 static_cast<std::size_t>(4 * n)));
  }
  // Improper cyclic.
  catalog.push_back(make_group("S4", {s4z}, 4));
  catalog.push_back(make_group("S6", {improper_rotation_z(6)}, 6));

  // Cubic groups.
  catalog.push_back(make_group("T", {c3_111, c2z}, 12));
  catalog.push_back(make_group("Th", {c3_111, c2z, inv}, 24));
  catalog.push_back(make_group("Td", {c3_111, s4z}, 24));
  catalog.push_back(make_group("O", {c3_111, c4z}, 24));
  catalog.push_back(make_group("Oh", {c3_111, c4z, inv}, 48));

  MATSCI_CHECK(catalog.size() == 32, "expected the 32 crystallographic "
                                     "point groups, built "
                                         << catalog.size());
  return catalog;
}

}  // namespace

const std::vector<PointGroup>& point_group_catalog() {
  static const std::vector<PointGroup> catalog = build_catalog();
  return catalog;
}

std::int64_t num_point_groups() {
  return static_cast<std::int64_t>(point_group_catalog().size());
}

const PointGroup& point_group_by_name(const std::string& name) {
  for (const PointGroup& g : point_group_catalog()) {
    if (g.name == name) return g;
  }
  MATSCI_CHECK(false, "unknown point group '" << name << "'");
  // Unreachable; silences the compiler.
  return point_group_catalog().front();
}

}  // namespace matsci::sym
