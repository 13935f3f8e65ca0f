//===- Slicer.h - Static backward slicing on the trace IR -------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "S" trace reduction of Section 6.2: drop every definition the
/// specification cannot observe. Soundness for localization: a statement
/// that cannot influence any obligation, assumption, or the return value
/// can never appear in a CoMSS, so removing it changes no diagnosis.
/// The paper's totinfo row shrinks 734 assignments to 21 this way.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_REDUCE_SLICER_H
#define BUGASSIST_REDUCE_SLICER_H

#include "bmc/Trace.h"

namespace bugassist {

struct SliceStats {
  size_t DefsBefore = 0;
  size_t DefsAfter = 0;
  size_t AssignsBefore = 0; ///< UserAssign defs (the Table 3 assign# metric)
  size_t AssignsAfter = 0;
};

/// Backward-slices \p UP from its obligations, assumptions, and return
/// value: copies out the definitions inside specCone (bmc/Trace.h), the
/// one cone the encoder also marks. Input definitions survive
/// unconditionally (the test binding needs them). SSA ids are preserved;
/// dropped definitions simply vanish from Defs.
UnrolledProgram sliceProgram(const UnrolledProgram &UP,
                             SliceStats *Stats = nullptr);

} // namespace bugassist

#endif // BUGASSIST_REDUCE_SLICER_H
