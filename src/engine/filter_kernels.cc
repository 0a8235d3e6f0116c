#include "engine/filter_kernels.h"

#include "engine/simd.h"

namespace lqo {

// Each entry point forwards to the process-wide SIMD kernel table
// (engine/simd.h): one indirect call per batch, resolved once at first use
// from CPU detection or the LQO_SIMD override. The scalar loop bodies live
// in engine/simd.cc as the kScalar reference level; every other level is
// bit-identical to them by contract, and all of them select exactly the
// rows Predicate::Matches accepts.

size_t FilterEqDense(const int64_t* col, uint32_t row_begin, uint32_t row_end,
                     int64_t value, uint32_t* out_sel) {
  return simd::Kernels().filter_eq_dense(col, row_begin, row_end, value,
                                         out_sel);
}

size_t FilterEqSel(const int64_t* col, const uint32_t* sel, size_t count,
                   int64_t value, uint32_t* out_sel) {
  return simd::Kernels().filter_eq_sel(col, sel, count, value, out_sel);
}

size_t FilterRangeDense(const int64_t* col, uint32_t row_begin,
                        uint32_t row_end, int64_t lo, int64_t hi,
                        uint32_t* out_sel) {
  return simd::Kernels().filter_range_dense(col, row_begin, row_end, lo, hi,
                                            out_sel);
}

size_t FilterRangeSel(const int64_t* col, const uint32_t* sel, size_t count,
                      int64_t lo, int64_t hi, uint32_t* out_sel) {
  return simd::Kernels().filter_range_sel(col, sel, count, lo, hi, out_sel);
}

size_t FilterInDense(const int64_t* col, uint32_t row_begin, uint32_t row_end,
                     std::span<const int64_t> sorted_values,
                     uint32_t* out_sel) {
  return simd::Kernels().filter_in_dense(col, row_begin, row_end,
                                         sorted_values.data(),
                                         sorted_values.size(), out_sel);
}

size_t FilterInSel(const int64_t* col, const uint32_t* sel, size_t count,
                   std::span<const int64_t> sorted_values, uint32_t* out_sel) {
  return simd::Kernels().filter_in_sel(col, sel, count, sorted_values.data(),
                                       sorted_values.size(), out_sel);
}

size_t FilterDense(const Predicate& p, const int64_t* col, uint32_t row_begin,
                   uint32_t row_end, uint32_t* out_sel) {
  switch (p.kind) {
    case PredicateKind::kEquals:
      return FilterEqDense(col, row_begin, row_end, p.value, out_sel);
    case PredicateKind::kRange:
      return FilterRangeDense(col, row_begin, row_end, p.lo, p.hi, out_sel);
    case PredicateKind::kIn:
      return FilterInDense(col, row_begin, row_end, p.in_values, out_sel);
  }
  return 0;
}

size_t FilterSel(const Predicate& p, const int64_t* col, const uint32_t* sel,
                 size_t count, uint32_t* out_sel) {
  switch (p.kind) {
    case PredicateKind::kEquals:
      return FilterEqSel(col, sel, count, p.value, out_sel);
    case PredicateKind::kRange:
      return FilterRangeSel(col, sel, count, p.lo, p.hi, out_sel);
    case PredicateKind::kIn:
      return FilterInSel(col, sel, count, p.in_values, out_sel);
  }
  return 0;
}

}  // namespace lqo
