//===- Slicer.cpp - Static backward slicing on the trace IR ------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "reduce/Slicer.h"

#include <vector>

using namespace bugassist;

UnrolledProgram bugassist::sliceProgram(const UnrolledProgram &UP,
                                        SliceStats *Stats) {
  std::vector<bool> Needed = specCone(UP);

  UnrolledProgram Out;
  Out.Vars = UP.Vars;
  Out.Inputs = UP.Inputs;
  Out.InputShapes = UP.InputShapes;
  Out.RetVal = UP.RetVal;
  Out.RetIsBool = UP.RetIsBool;
  Out.MaxUnwinding = UP.MaxUnwinding;
  for (const TraceObligation &O : UP.Obligations)
    Out.Obligations.push_back(O);
  for (const TraceAssumption &A : UP.Assumptions)
    Out.Assumptions.push_back(A);

  size_t AssignsBefore = 0, AssignsAfter = 0;
  for (const TraceDef &D : UP.Defs) {
    if (D.Role == DefRole::UserAssign)
      ++AssignsBefore;
    // Inputs always survive: the trace formula binds them to the test.
    if (D.Role != DefRole::Input && !Needed[D.Def])
      continue;
    TraceDef Copy;
    Copy.Def = D.Def;
    Copy.Rhs = cloneSymExpr(D.Rhs.get());
    Copy.Role = D.Role;
    Copy.Line = D.Line;
    Copy.Label = D.Label;
    Copy.Unwinding = D.Unwinding;
    Copy.Trusted = D.Trusted;
    Copy.Shadow = D.Shadow;
    if (Copy.Role == DefRole::UserAssign)
      ++AssignsAfter;
    Out.Defs.push_back(std::move(Copy));
  }

  if (Stats) {
    Stats->DefsBefore = UP.Defs.size();
    Stats->DefsAfter = Out.Defs.size();
    Stats->AssignsBefore = AssignsBefore;
    Stats->AssignsAfter = AssignsAfter;
  }
  return Out;
}
