//===- Encoder.h - Trace IR to grouped CNF ----------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns an UnrolledProgram into a grouped CNF formula (paper Eq. 2):
/// every soft definition's circuit lands in the clause group of its source
/// line (TF1, guarded by the group selector); the selectors themselves
/// become the soft clauses (TF2). Hard definitions, assumptions, and the
/// obligation conjunction are plain hard clauses.
///
/// Options map to the paper's extensions:
///  * PerIterationGroups + weights alpha + eta - kappa implement the loop
///    diagnosis of Section 5.2 (Eq. 3);
///  * ConcretizeTrusted replaces the circuits of trusted definitions that
///    have shadow values with constant bindings (Section 6.2's "C").
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_BMC_ENCODER_H
#define BUGASSIST_BMC_ENCODER_H

#include "bmc/BitBlaster.h"
#include "bmc/Trace.h"
#include "cnf/Cnf.h"

#include <algorithm>
#include <map>
#include <memory>

namespace bugassist {

struct EncodeOptions {
  int BitWidth = 16;
  /// Group selectors per (line, unwinding) instead of per line, and weight
  /// soft groups alpha + eta - kappa (Section 5.2).
  bool PerIterationGroups = false;
  /// alpha: base weight for soft clauses in weighted mode.
  uint64_t BaseWeight = 1;
  /// Replace trusted definitions carrying shadow values with constants.
  bool ConcretizeTrusted = false;
  /// Ablation switch: give every definition its own selector instead of
  /// grouping by source line, to measure what the paper's Section 3.4
  /// clause grouping buys.
  bool GroupPerDefinition = false;
};

/// The CNF image of an unrolled program.
struct EncodedProgram {
  CnfFormula Formula;
  std::unique_ptr<BitBlaster> Blaster; // owns the true-literal anchor
  /// Input words, aligned with UnrolledProgram::Inputs (bools are 1-wide).
  std::vector<Word> InputWords;
  /// Conjunction of all obligations (guard => cond): "the spec holds".
  Lit SpecLit;
  /// Entry return value (empty for void entries; 1-wide for bool).
  Word RetWord;
  /// Stored copies of the source metadata the localizer reports.
  std::vector<TraceInput> Inputs;
  std::vector<InputShape> InputShapes;
  bool RetIsBool = false;
  /// One mark per hard clause of Formula, set when the clause encodes a
  /// definition outside specCone (bmc/Trace.h). Such a definition is a
  /// Tseitin circuit over fresh variables that nothing live reads, so the
  /// localization instances (TraceFormula::sharedInstance) leave its
  /// clauses out; the BMC counterexample search loads every clause.
  std::vector<bool> OutsideCone;
  /// The variables only marked clauses mention: the fresh variables of the
  /// definitions outside the cone, never a group selector.
  std::vector<Var> OutsideVars;

  /// \returns how many clauses OutsideCone marks.
  size_t numOutsideClauses() const {
    return static_cast<size_t>(
        std::count(OutsideCone.begin(), OutsideCone.end(), true));
  }

  /// \returns every selector literal, i.e. the paper's TF2.
  std::vector<Lit> allSelectors() const {
    std::vector<Lit> Ls;
    for (const ClauseGroup &G : Formula.groups())
      Ls.push_back(mkLit(G.Selector));
    return Ls;
  }
};

/// Encodes \p UP to CNF.
EncodedProgram encodeProgram(const UnrolledProgram &UP,
                             const EncodeOptions &Opts = {});

} // namespace bugassist

#endif // BUGASSIST_BMC_ENCODER_H
