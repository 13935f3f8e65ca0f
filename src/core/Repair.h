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
///  * off-by-one: every constant kappa in a suspect line's code tried as
///    kappa+1 and kappa-1 (the paper's headline repair, Section 6.3);
///  * operator replacement: comparison / arithmetic operator swapped for a
///    near miss (< vs <=, + vs -, ...), the "operator errors" extension the
///    paper sketches in Section 2.
///
/// Candidates are planned and applied through lang/AstEdit.h, the edit
/// module the mutation engine shares, so no candidate ever touches an
/// assert or assume condition: a repair changes the code under test,
/// never weakens the specification that judges it.
///
/// A candidate is accepted when (a) every supplied failing test now passes
/// in the interpreter and (b) bounded model checking finds no new violation
/// within the encoding bounds.
///
/// Repair runs on a prepared driver (core/Pipeline.h's PreparedProgram):
/// localization and the line prescreen share one session over its trace
/// formula, and only candidate verification unrolls and encodes again.
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
  /// Conflict budget for the BMC re-verification of each candidate.
  uint64_t VerifyBudget = 200000;
  /// Max candidate mutants to try.
  size_t MaxCandidates = 256;
  /// Interpreter fuel per screening run (0 = the interpreter default).
  /// Mutant sweeps lower this: a candidate that reintroduces a runaway
  /// loop should fail the screen quickly, not burn the default budget.
  uint64_t MaxInterpSteps = 0;
  /// Before planning any mutant, check each candidate line against the
  /// prepared trace formula with isValidCorrection semantics -- if freeing
  /// every clause of a line cannot make the failing test pass within the
  /// encoding bounds, no single-line mutation there can either, and all
  /// its candidates are skipped without building a single mutant formula.
  /// One localization session with the first failing test bound serves
  /// all lines via selector assumptions.
  bool PrescreenLines = true;
};

/// Deterministic work counters for one repairProgram run (no wall-clock,
/// no solver search statistics -- safe to compare byte-for-byte).
struct RepairStats {
  size_t LinesConsidered = 0;   ///< candidate lines entering the funnel
  size_t LinesScreenedOut = 0;  ///< rejected by the line prescreen
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

/// The lines of \p Report's diagnoses in first-seen order, each once: the
/// first CoMSS is the most likely fix location, so its lines are mutated
/// first.
std::vector<uint32_t> candidateLines(const LocalizationReport &Report);

/// Algorithm 2 generalized to off-by-one and operator mutations, on
/// \p Driver: the prepared unroll+encode of \p Prog from \p Entry, whose
/// unroll options the screening interpreter and every candidate's
/// verification reuse. \p FailingTests drive both localization and
/// candidate screening; the spec's GoldenReturn (if any) applies per test
/// via \p GoldenPerTest.
///
/// The first failing test (under GoldenPerTest[0] when given) is bound to
/// one localization session over Driver's formula: \p Session when given
/// (a never-solved session over sharedInstance(), e.g. serve's clone of a
/// cached base; it is consumed), else one built and preprocessed here.
/// Without Opts.CandidateLines the session localizes, and \p Report (when
/// non-null) receives the report; a report without a diagnosis leaves no
/// line and tries no repair. The line prescreen (RepairOptions::
/// PrescreenLines) solves on a clone of the session taken before
/// localization's first solve, so the formula is loaded and preprocessed
/// once, or on the session itself when the lines were given.
///
/// One deadline covers the whole call, Opts.Localize.Budget's timeout
/// counted from the call (or from an earlier QueryBudget::startClock):
/// localization, the prescreen and every verification solver stop at it,
/// and the candidate loop checks it between candidates; expiry ends the
/// search with Truncated.
RepairResult repairProgram(const Program &Prog, const BugAssistDriver &Driver,
                           const std::string &Entry,
                           const std::vector<InputVector> &FailingTests,
                           const Spec &S,
                           const std::vector<int64_t> *GoldenPerTest = nullptr,
                           const RepairOptions &Opts = {},
                           MaxSatSession *Session = nullptr,
                           LocalizationReport *Report = nullptr);

} // namespace bugassist

#endif // BUGASSIST_CORE_REPAIR_H
