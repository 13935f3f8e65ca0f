//===- MutantGenerator.h - Seeded fault-catalog mutation engine -*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seed-driven AST mutation engine generalizing the
/// paper's Table 1/2 experiment: instead of the 41 hand-injected TCAS
/// versions, it walks any analyzed mini-C Program and synthesizes labeled
/// mutants for all eight ErrorType classes, each carrying its ground-truth
/// fault line and class tag. The fuzz sweep (mutate/FuzzSweep.h) feeds
/// these through the whole localize/repair stack as a differential test.
///
/// Mutants are planned against the base program as lang/AstEdit.h edits
/// (the edit module the repair engine shares) and applied to fresh clones
/// by applyEdit, so every mutant keeps the base source's line numbering --
/// the ground-truth line stays meaningful, and UnrollOptions hard lines
/// for the subject remain valid.
///
/// Determinism contract: the same (base program, options, N) produces a
/// byte-identical mutant set -- all randomness flows through one SplitMix64
/// stream seeded from Options.Seed.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MUTATE_MUTANTGENERATOR_H
#define BUGASSIST_MUTATE_MUTANTGENERATOR_H

#include "lang/Ast.h"
#include "programs/FaultCatalog.h"
#include "support/Rng.h"

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace bugassist {

/// The label a generated mutant carries: which Table 2 class was injected,
/// on which base-source line, and a human-readable rendering of the edit.
struct MutantSpec {
  ErrorType Type = ErrorType::Op;
  /// Ground-truth fault line (base numbering; mutants preserve it). For
  /// ErrorType::Code this is the line of the *dropped* statement, which by
  /// construction is absent from the mutant's trace formula -- the paper's
  /// missing-code caveat (Section 6) applies.
  uint32_t Line = 0;
  /// e.g. "line 12: '<' -> '<='" or "line 7: constant 600 -> 601".
  std::string Description;
};

/// A mutant: its label plus the analyzed (parsed + sema'd) program.
struct GeneratedMutant {
  MutantSpec Spec;
  std::unique_ptr<Program> Prog;
};

struct MutantGeneratorOptions {
  /// SplitMix64 seed; the sole source of randomness.
  uint64_t Seed = 1;
  /// Fault classes to draw from, round-robin. Empty = all eight (classes
  /// with no sites in the subject are skipped).
  std::vector<ErrorType> Classes;
  /// Lines that must not be mutated -- the subject's test harness and
  /// specification lines (e.g. tcasUnrollOptions().HardLines).
  std::set<uint32_t> ProtectedLines;
  /// Re-draw budget per requested mutant before giving up on the slot
  /// (a draw can fail when e.g. an RHS redirection does not re-sema).
  unsigned MaxAttemptsPerMutant = 16;
};

/// Walks the base program once to discover mutation sites per fault class,
/// then serves seeded draws. Sites inside assert/assume conditions and on
/// protected lines are never mutated: the engine injects faults into the
/// code under test, not into the specification.
class MutantGenerator {
public:
  /// \p Base must be analyzed; the generator keeps its own re-analyzed
  /// clone, so \p Base need not outlive it.
  MutantGenerator(const Program &Base, MutantGeneratorOptions Opts = {});
  ~MutantGenerator();

  /// Number of discovered mutation sites for \p T (0 = the class can never
  /// be injected into this subject).
  size_t siteCount(ErrorType T) const;

  /// Draws the next \p N mutants (round-robin over enabled classes with
  /// sites). May return fewer than \p N if attempts are exhausted. Every
  /// returned program re-analyzed successfully; callers can run it
  /// directly. Consecutive calls continue the same stream: generate(4)
  /// twice == generate(8) once.
  std::vector<GeneratedMutant> generate(size_t N);

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

} // namespace bugassist

#endif // BUGASSIST_MUTATE_MUTANTGENERATOR_H
