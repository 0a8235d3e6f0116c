#ifndef LQO_ENGINE_FILTER_KERNELS_H_
#define LQO_ENGINE_FILTER_KERNELS_H_

#include <cstdint>
#include <span>

#include "query/predicate.h"

namespace lqo {

/// Branch-free predicate kernels over contiguous int64 column spans — the
/// selection-vector stage of the vectorized executor (DESIGN.md "Vectorized
/// execution").
///
/// The reference semantics is per-row Predicate::Matches (inclusive ranges,
/// sorted-unique IN lists): a kernel keeps exactly the rows Matches accepts,
/// and survivors always come out in ascending row order, so a scan emits its
/// qualifying rows in base-row order — what the naive test oracle
/// (tests/naive_exec_oracle.h) computes with Matches. `Dense` variants scan
/// the contiguous row range [row_begin, row_end); `Sel` variants refine an
/// existing selection vector. All return the number of surviving rows
/// written to `out_sel`, whose capacity must cover the input count.
///
/// Since the SIMD dispatch layer landed, these entry points forward to the
/// active engine/simd.h kernel table: on a CPU with SSE4.2/AVX2 (or under
/// an `LQO_SIMD` override) the loops run as explicit
/// compare→movemask→compressed-store kernels; the scalar reference level
/// keeps the original cursor loops, and every level is bit-identical.

// -- Typed kernels (one tight loop per comparison op), exposed for the
//    kernel microbenchmarks in bench_micro_components. --

size_t FilterEqDense(const int64_t* col, uint32_t row_begin, uint32_t row_end,
                     int64_t value, uint32_t* out_sel);
size_t FilterEqSel(const int64_t* col, const uint32_t* sel, size_t count,
                   int64_t value, uint32_t* out_sel);

size_t FilterRangeDense(const int64_t* col, uint32_t row_begin,
                        uint32_t row_end, int64_t lo, int64_t hi,
                        uint32_t* out_sel);
size_t FilterRangeSel(const int64_t* col, const uint32_t* sel, size_t count,
                      int64_t lo, int64_t hi, uint32_t* out_sel);

size_t FilterInDense(const int64_t* col, uint32_t row_begin, uint32_t row_end,
                     std::span<const int64_t> sorted_values,
                     uint32_t* out_sel);
size_t FilterInSel(const int64_t* col, const uint32_t* sel, size_t count,
                   std::span<const int64_t> sorted_values, uint32_t* out_sel);

// -- Predicate dispatch (one switch per batch, never per row). --

size_t FilterDense(const Predicate& p, const int64_t* col, uint32_t row_begin,
                   uint32_t row_end, uint32_t* out_sel);
size_t FilterSel(const Predicate& p, const int64_t* col, const uint32_t* sel,
                 size_t count, uint32_t* out_sel);

}  // namespace lqo

#endif  // LQO_ENGINE_FILTER_KERNELS_H_
