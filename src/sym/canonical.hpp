#pragma once

#include <cstdint>
#include <string>

#include "data/sample.hpp"

namespace matsci::sym {

/// 64-bit FNV-1a hash of the canonical form of `sample` (the
/// response-cache key path in serve/frontend): sorted (species,
/// quantized position) records plus the quantized lattice and the
/// dataset id. The form folds atom permutation and rigid translation
/// (the centroid is subtracted), and quantizes coordinates on a
/// 1e-4 Å grid so float noise below it does not split keys: two
/// structures closer than ~grid/2 per coordinate hash identically.
/// Rigid rotation is not folded — model outputs are rotation-invariant
/// only mathematically, not bit for bit. Everything that feeds a
/// forward pass is hashed; labels (scalar/class targets, forces) are
/// not. Deterministic across runs and platforms for identical inputs.
std::uint64_t canonical_structure_hash(const data::StructureSample& sample);

/// FNV-1a over a byte string (seed chaining: pass a previous hash as
/// `seed` to combine).
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// Convenience: hash a std::string with FNV-1a (seed-chainable).
std::uint64_t fnv1a64(const std::string& s,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace matsci::sym
