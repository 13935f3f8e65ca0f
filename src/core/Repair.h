//===- Repair.h - Automated repair suggestions ------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5.1 / Algorithm 2: after localization narrows the fault to a few
/// lines, mutate those lines with common-error fixes and keep any mutant
/// whose failure disappears:
///  * off-by-one: every constant kappa on a suspect line tried as kappa+1
///    and kappa-1 (the paper's headline repair, Section 6.3);
///  * operator replacement: comparison / arithmetic operator swapped for a
///    near miss (< vs <=, + vs -, ...), the "operator errors" extension the
///    paper sketches in Section 2.
///
/// A candidate is accepted when (a) every supplied failing test now passes
/// in the interpreter and (b) bounded model checking finds no new violation
/// within the encoding bounds.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_REPAIR_H
#define BUGASSIST_CORE_REPAIR_H

#include "core/BugAssist.h"

#include <memory>
#include <string>

namespace bugassist {

/// What kinds of mutations to attempt.
struct RepairOptions {
  bool OffByOne = true;
  bool OperatorSwap = true;
  /// Lines to mutate; when empty, localization runs first and its report
  /// supplies the lines.
  std::vector<uint32_t> CandidateLines;
  LocalizeOptions Localize;
  UnrollOptions Unroll;
  /// Conflict budget for the BMC re-verification of each candidate.
  uint64_t VerifyBudget = 200000;
  /// Max candidate mutants to try.
  size_t MaxCandidates = 256;
  /// Interpreter fuel per screening run (0 = the interpreter default).
  /// Mutant sweeps lower this: a candidate that reintroduces a runaway
  /// loop should fail the screen quickly, not burn the default budget.
  uint64_t MaxInterpSteps = 0;
  /// Pooled-driver path only: before planning any mutant, check each
  /// candidate line against the prepared trace formula with
  /// isValidCorrection semantics -- if freeing every clause of a line
  /// cannot make the failing test pass within the encoding bounds, no
  /// single-line mutation there can either, and all its candidates are
  /// skipped without building a single mutant formula. One localization
  /// session with the first failing test bound serves all lines via
  /// selector assumptions.
  bool PrescreenLines = true;
};

/// Deterministic work counters for one repairProgram run (no wall-clock,
/// no solver search statistics -- safe to compare byte-for-byte).
struct RepairStats {
  size_t LinesConsidered = 0;   ///< candidate lines entering the funnel
  size_t LinesScreenedOut = 0;  ///< rejected by the pooled prescreen
  size_t PrescreenSatCalls = 0; ///< incremental solves in the prescreen
  size_t CandidatesPlanned = 0; ///< mutations planned on surviving lines
  size_t CandidatesTried = 0;   ///< mutants actually built and screened
  size_t SemaRejected = 0;      ///< mutants that no longer analyze
  size_t TestScreenRejected = 0; ///< mutants failing the interpreter screen
  size_t BmcRejected = 0;       ///< mutants failing BMC re-verification
  size_t FormulaBuilds = 0;     ///< unroll+encode runs (the expensive step)
};

/// One accepted repair.
struct RepairSuggestion {
  uint32_t Line = 0;
  std::string Description; ///< e.g. "constant 15 -> 14" or "'<' -> '<='"
  std::unique_ptr<Program> FixedProgram;
};

struct RepairResult {
  bool Found = false;
  RepairSuggestion Suggestion;
  size_t CandidatesTried = 0;
  /// Lines localization proposed (useful when no repair validated).
  std::vector<uint32_t> SuspectLines;
  /// MaxCandidates or the request deadline (Localize.Budget's timeout)
  /// stopped the search before the plan was exhausted; the "no repair"
  /// answer is budget-truncated, not a decided negative.
  bool Truncated = false;
  RepairStats Stats;
};

/// Algorithm 2 generalized to off-by-one and operator mutations.
/// \p FailingTests drive both localization and candidate screening; the
/// spec's GoldenReturn (if any) applies per test via \p GoldenPerTest.
/// This overload rebuilds the trace formula from scratch for localization
/// and for every candidate verification (the reference path; see the
/// pooled overload below for the serve/CLI production path).
///
/// Both overloads answer to one deadline, Opts.Localize.Budget's timeout
/// counted from the call (or from an earlier QueryBudget::startClock):
/// localization, the prescreen and every verification solver stop at it,
/// and the candidate loop checks it between candidates; expiry ends the
/// search with Truncated.
RepairResult repairProgram(const Program &Prog, const std::string &Entry,
                           const std::vector<InputVector> &FailingTests,
                           const Spec &S,
                           const std::vector<int64_t> *GoldenPerTest = nullptr,
                           const RepairOptions &Opts = {});

/// Pooled path: \p Driver must be the prepared unroll+encode of \p Prog
/// with Opts.Unroll (core/Pipeline.h's PreparedProgram supplies both, and
/// serve's FormulaCache shares one across requests). Localization reuses
/// Driver's formula instead of rebuilding, and candidate lines are
/// prescreened (see RepairOptions::PrescreenLines) before any
/// per-candidate rebuild.
///
/// The prescreen solves on \p Prescreen when given: a never-solved
/// localization session over Driver's formula with FailingTests[0] bound
/// under S (GoldenPerTest[0] as its golden) -- runRepairPipeline passes a
/// clone of the session it localizes on, already loaded and preprocessed.
/// It is consumed. Without one (a direct call), a session is built from
/// localizationInstance once. Either way
/// the answers are SAT/UNSAT of the same formula, so results are identical
/// to the rebuild overload whenever both decide -- the prescreen only
/// removes candidates that could never validate.
RepairResult repairProgram(const Program &Prog, const BugAssistDriver &Driver,
                           const std::string &Entry,
                           const std::vector<InputVector> &FailingTests,
                           const Spec &S,
                           const std::vector<int64_t> *GoldenPerTest = nullptr,
                           const RepairOptions &Opts = {},
                           MaxSatSession *Prescreen = nullptr);

} // namespace bugassist

#endif // BUGASSIST_CORE_REPAIR_H
