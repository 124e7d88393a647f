#include "sym/canonical.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/macros.hpp"

namespace matsci::sym {

namespace {

/// One atom in canonical form: species plus grid-quantized coordinates.
struct CanonicalAtom {
  std::int64_t species = 0;
  std::array<std::int64_t, 3> q{};

  bool operator<(const CanonicalAtom& o) const {
    if (species != o.species) return species < o.species;
    return q < o.q;
  }
};

/// Coordinate quantization grid of the canonical form, in Å.
constexpr double kGrid = 1e-4;

std::int64_t quantize(double v) {
  return static_cast<std::int64_t>(std::llround(v / kGrid));
}

void hash_i64(std::uint64_t& h, std::int64_t v) {
  h = fnv1a64(&v, sizeof(v), h);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& s, std::uint64_t seed) {
  return fnv1a64(s.data(), s.size(), seed);
}

std::uint64_t canonical_structure_hash(const data::StructureSample& sample) {
  const std::size_t n = sample.positions.size();
  MATSCI_CHECK(sample.species.size() == n,
               "canonical_structure_hash: " << sample.species.size()
                                            << " species for " << n
                                            << " positions");

  // Centroid shift: folds rigid translation.
  core::Vec3 centroid{};
  for (const core::Vec3& p : sample.positions) centroid += p;
  if (n > 0) centroid = centroid * (1.0 / static_cast<double>(n));

  std::vector<CanonicalAtom> atoms(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::Vec3 p = sample.positions[i] - centroid;
    atoms[i].species = sample.species[i];
    atoms[i].q = {quantize(p.x), quantize(p.y), quantize(p.z)};
  }
  std::sort(atoms.begin(), atoms.end());

  std::uint64_t h = 0xcbf29ce484222325ull;
  hash_i64(h, static_cast<std::int64_t>(n));
  hash_i64(h, sample.dataset_id);
  for (const CanonicalAtom& a : atoms) {
    hash_i64(h, a.species);
    hash_i64(h, a.q[0]);
    hash_i64(h, a.q[1]);
    hash_i64(h, a.q[2]);
  }
  if (sample.lattice.has_value()) {
    hash_i64(h, 1);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        hash_i64(h, quantize((*sample.lattice)[r][c]));
      }
    }
  } else {
    hash_i64(h, 0);
  }
  return h;
}

}  // namespace matsci::sym
