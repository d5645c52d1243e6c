// Runtime-dispatched hot-loop kernels: one scalar implementation (the
// permanent differential baseline, as Lloyd's scan is for Hamerly k-means)
// plus AVX2 and AVX-512 variants selected once at startup via CPUID.
//
// Determinism contract: every kernel is bit-identical to its scalar
// counterpart at every dispatch level.
//  - Integer/bit kernels (popcount, intersect, subset, to_indices) are
//    exact at any evaluation order.
//  - Sum-reduction float kernels (squared_euclidean, manhattan) keep the
//    scalar's sequential accumulation order as the contract; their table
//    entries stay scalar code at every level (vector lanes would reorder
//    the adds), and the SIMD win comes from the batched form instead.
//  - squared_euclidean_to_many assigns one *candidate* per vector lane,
//    so each lane performs the exact scalar instruction sequence
//    (subtract, multiply, add — never an FMA contraction; the kernel
//    translation units compile with -ffp-contract=off) and lanes are
//    stored back in fixed index order. Bit-identical to calling the
//    scalar pairwise kernel per candidate.
//  - chebyshev is a max-reduction: exact (no rounding) at any order for
//    non-NaN inputs, so it vectorizes freely.
// tests/core/kernels_test.cc asserts all of this bit-for-bit rather
// than assuming it.
//
// The level is pinned at the first Ops() call: CPUID picks the best
// compiled-in level the host supports, overridable (downward only) with
// DMT_KERNEL_LEVEL=scalar|avx2|avx512 for differential testing.
// OpsForLevel() exposes every supported table directly so tests and
// benches can sweep levels inside one process.
#ifndef DMT_CORE_KERNELS_KERNELS_H_
#define DMT_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "core/kernels/aligned.h"

namespace dmt::core::kernels {

enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Dispatch table. All pointers are non-null in every table.
struct KernelOps {
  KernelLevel level;

  // -- bitset kernels over arrays of 64-bit words --------------------
  /// Total set bits in words[0, n).
  size_t (*popcount)(const uint64_t* words, size_t n);
  /// popcount(a & b) without materializing the intersection (fused
  /// and+popcount).
  size_t (*intersection_count)(const uint64_t* a, const uint64_t* b,
                               size_t n);
  /// a &= b; returns popcount of the result in the same pass.
  size_t (*intersect_inplace)(uint64_t* a, const uint64_t* b, size_t n);
  /// out = a & b; returns popcount of the result in the same pass.
  size_t (*intersect_into)(uint64_t* out, const uint64_t* a,
                           const uint64_t* b, size_t n);
  /// Writes the ascending bit indices of words[0, n) into out (caller
  /// guarantees capacity); returns the number written.
  size_t (*to_indices)(const uint64_t* words, size_t n, uint32_t* out);

  // -- containment kernels -------------------------------------------
  /// True when every set bit of sub is set in super: (sub & ~super) == 0
  /// over n words, with early exit.
  bool (*mask_is_subset)(const uint64_t* sub, const uint64_t* super,
                         size_t n);

  // -- dense distance kernels ----------------------------------------
  double (*squared_euclidean)(const double* a, const double* b, size_t n);
  double (*manhattan)(const double* a, const double* b, size_t n);
  double (*chebyshev)(const double* a, const double* b, size_t n);
  /// out[c] = SquaredEuclidean(point, candidate c) for c in [0, count),
  /// candidates stored dimension-major: candidate c's coordinate d is
  /// soa[d * stride + c] (stride >= count allows sub-blocks of a wider
  /// SoA matrix). Bit-identical to the pairwise scalar kernel per
  /// candidate.
  void (*squared_euclidean_to_many)(const double* point, const double* soa,
                                    size_t stride, size_t count, size_t dim,
                                    double* out);
};

/// The table production code uses; resolved once at first use (CPUID
/// best level, clamped down by DMT_KERNEL_LEVEL when set) and pinned for
/// the process lifetime.
const KernelOps& Ops();

/// Level of the pinned Ops() table.
KernelLevel ActiveLevel();

/// Best level this build + host supports (ignores DMT_KERNEL_LEVEL).
KernelLevel MaxSupportedLevel();

/// Direct access to one level's table for differential tests and
/// benches; nullptr when the level is not compiled in or the host CPU
/// lacks it.
const KernelOps* OpsForLevel(KernelLevel level);

/// "scalar" / "avx2" / "avx512".
const char* KernelLevelName(KernelLevel level);

/// Parses a DMT_KERNEL_LEVEL value; returns false on unknown names.
bool ParseKernelLevel(const char* name, KernelLevel* out);

// -- single-word signature helpers -----------------------------------
// 64-bit Bloom-style itemset signatures: hash every item to one bit.
// SignatureSubset(sig(A), sig(B)) is a necessary condition for A ⊆ B,
// so it is a safe O(1) gate in front of an exact containment scan.

inline uint64_t SignatureOfItem(uint32_t item) {
  return uint64_t{1} << (item & 63);
}

inline bool SignatureSubset(uint64_t sub, uint64_t super) {
  return (sub & ~super) == 0;
}

// -- SoA staging block for the batched distance kernel ----------------

/// Dimension-major copy of row-major points: data()[d * count + c] is
/// candidate c's coordinate d, 64-byte aligned for whole-line vector
/// loads. Rebuilding is O(count * dim); callers stage once per block of
/// queries (k-means rebuilds per iteration, kNN/DBSCAN once per fit).
class SoaBlock {
 public:
  void Assign(const double* row_major, size_t count, size_t dim) {
    count_ = count;
    dim_ = dim;
    data_.resize(count * dim);
    for (size_t c = 0; c < count; ++c) {
      const double* row = row_major + c * dim;
      for (size_t d = 0; d < dim; ++d) data_[d * count + c] = row[d];
    }
  }

  const double* data() const { return data_.data(); }
  size_t count() const { return count_; }
  size_t dim() const { return dim_; }
  bool empty() const { return data_.empty(); }

 private:
  AlignedVector<double> data_;
  size_t count_ = 0;
  size_t dim_ = 0;
};

}  // namespace dmt::core::kernels

#endif  // DMT_CORE_KERNELS_KERNELS_H_
