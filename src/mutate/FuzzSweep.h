//===- FuzzSweep.h - Differential mutant sweep ------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generalized Table 1/2 experiment as a randomized differential test
/// for the whole stack. For each seeded mutant of a subject program the
/// sweep:
///
///  1. segregates failing tests against the golden version (Section 6.1);
///  2. localizes one failing test twice -- with the default solver and
///     with preprocessing disabled -- and asserts the two canonical
///     reports are byte-identical (any divergence is a determinism bug in
///     the canonicalizer/preprocessor, and is surfaced as a mismatch,
///     never swallowed);
///  3. scores whether the ground-truth fault line appears in the
///     diagnosis (Table 1's "hit");
///  4. on hits, attempts Algorithm 2 repair through the pooled
///     repairProgram path and counts validated fixes.
///
/// Results aggregate into a Table-1-style per-fault-class scorecard whose
/// JSON rendering is canonical: same subject + options => byte-identical
/// scorecard (the fuzz-smoke CI job diffs it against a checked-in
/// expectation).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MUTATE_FUZZSWEEP_H
#define BUGASSIST_MUTATE_FUZZSWEEP_H

#include "core/Pipeline.h"
#include "mutate/MutantGenerator.h"

#include <array>
#include <functional>
#include <string>
#include <vector>

namespace bugassist {

/// The program under test plus everything needed to judge and localize
/// its mutants.
struct FuzzSubject {
  /// Golden (correct) analyzed program; must outlive the sweep.
  const Program *Base = nullptr;
  /// Subject tag in the scorecard ("tcas", "program1", ...).
  std::string Name;
  std::string Entry = "main";
  UnrollOptions Unroll;
  EncodeOptions Encode;
  /// Include assert/bounds obligations in the localization spec. The TCAS
  /// methodology uses golden-return specs only (false).
  bool CheckObligations = false;
  /// Test pool; mutants are judged by return-value difference vs Base.
  std::vector<InputVector> Pool;
  /// Never-mutated lines (harness + spec); also passed to the generator.
  std::set<uint32_t> ProtectedLines;
};

struct FuzzOptions {
  uint64_t Seed = 1;
  /// Mutants to generate.
  size_t Count = 100;
  size_t MaxDiagnoses = 8;
  /// Failing tests kept per mutant (screening depth for repair).
  size_t MaxFailingTests = 4;
  /// Passing tests replayed per repair candidate as regression witnesses:
  /// a "fix" that breaks previously passing pool behavior is rejected.
  size_t MaxPassingTests = 24;
  /// Interpreter fuel per pool run: far below the interpreter default so
  /// runaway-loop mutants (negated while conditions) stay cheap.
  uint64_t MaxInterpSteps = 100000;
  bool TryRepair = true;
  size_t RepairMaxCandidates = 64;
  uint64_t RepairVerifyBudget = 200000;
  /// Restrict to these fault classes (empty = all eight).
  std::vector<ErrorType> Classes;
};

/// Per-fault-class tallies, a row of the scorecard.
struct FuzzClassStats {
  size_t Mutants = 0;    ///< generated in this class
  size_t Failing = 0;    ///< had a localizable failing test
  size_t Localized = 0;  ///< localization produced >= 1 diagnosis
  size_t Hits = 0;       ///< ground-truth line among the suspects
  size_t Repaired = 0;   ///< a validated repair was found
  size_t Mismatches = 0; ///< differential reports disagreed (MUST be 0)
};

struct FuzzResult {
  std::array<FuzzClassStats, NumErrorTypes> PerClass;
  size_t Generated = 0;
  size_t TotalMismatches = 0;
  /// One human-readable note per mismatch (mutant description + configs).
  std::vector<std::string> MismatchNotes;
};

/// Optional progress hook: called after each mutant with (done, total).
using FuzzProgress = std::function<void(size_t, size_t)>;

/// Runs the sweep. Deterministic: same subject + options => same result
/// (all localize/repair queries run unbudgeted or with deterministic
/// conflict budgets, never wall-clock ones).
FuzzResult runFuzzSweep(const FuzzSubject &Subject, const FuzzOptions &Opts,
                        const FuzzProgress &Progress = nullptr);

/// Canonical JSON scorecard (Table 1 analogue). Deterministic byte-for-
/// byte; per-class rows appear in Table 2 order.
std::string renderFuzzScorecard(const FuzzSubject &Subject,
                                const FuzzOptions &Opts,
                                const FuzzResult &Res);

} // namespace bugassist

#endif // BUGASSIST_MUTATE_FUZZSWEEP_H
