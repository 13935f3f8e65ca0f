//===- Repair.cpp - Automated repair suggestions -----------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Repair.h"

#include "lang/AstEdit.h"

#include <map>
#include <set>

using namespace bugassist;

namespace {

/// Algorithm 2's candidate plan: for each line of \p Lines in order -- the
/// diagnosis order, so the most likely fix location is tried first -- the
/// literal +/-1 edits and the near-miss operator swaps of that line's edit
/// sites, in ordinal order. One walk of \p P finds the sites of every line.
std::vector<Edit> planEdits(const Program &P,
                            const std::vector<uint32_t> &Lines,
                            const RepairOptions &Opts) {
  std::map<uint32_t, std::vector<Edit>> OnLine;
  for (uint32_t L : Lines)
    OnLine.try_emplace(L);
  forEachEditableExpr(P, [&](const Expr *E, size_t Ordinal) {
    auto It = OnLine.find(E->loc().Line);
    if (It == OnLine.end())
      return;
    if (const auto *IL = dyn_cast<IntLiteral>(E); IL && Opts.OffByOne)
      for (int64_t Delta : {+1, -1})
        It->second.push_back(
            perturbIntEdit(Ordinal, It->first, IL->value(), Delta));
    if (const auto *BE = dyn_cast<BinaryExpr>(E); BE && Opts.OperatorSwap)
      for (BinaryOp NewOp : nearMissOps(BE->op()))
        It->second.push_back(swapOpEdit(Ordinal, It->first, BE->op(), NewOp));
  });
  std::vector<Edit> Plan;
  for (uint32_t L : Lines)
    Plan.insert(Plan.end(), OnLine[L].begin(), OnLine[L].end());
  return Plan;
}

/// Sound per-line pre-filter on the prepared trace formula: freeing every
/// clause group of line L over-approximates any single-line mutation of L
/// within the encoding bounds, so if the failing test still cannot pass
/// (UNSAT), every candidate on L is doomed and is dropped before any
/// mutant formula gets built. \p Session is a never-solved localization
/// session with the failing test bound; each line costs one solve of its
/// solver under selector assumptions. The session's own additions -- the
/// soft clauses' guards or relaxation literals -- are never assumed, so
/// each answer is the satisfiability of the trace formula itself. Undef
/// (budget exhausted) keeps the line -- the filter only removes
/// certainties.
void prescreenLines(MaxSatSession &Session, const CnfFormula &F,
                    std::vector<uint32_t> &Lines, uint64_t ConflictBudget,
                    const Solver::Budget &Deadline, RepairStats &Stats) {
  Solver &Solve = Session.solver();
  if (!Solve.okay())
    return; // hard core is contradictory; leave the funnel untouched
  Solve.setConflictBudget(ConflictBudget);
  Solve.setBudget(Deadline);
  std::vector<uint32_t> Kept;
  std::vector<Lit> Assumptions;
  for (uint32_t L : Lines) {
    Assumptions.clear();
    for (const ClauseGroup &G : F.groups())
      Assumptions.push_back(mkLit(G.Selector, /*Negated=*/G.Line == L));
    ++Stats.PrescreenSatCalls;
    if (Solve.solve(Assumptions) == LBool::False) {
      ++Stats.LinesScreenedOut;
      continue;
    }
    Kept.push_back(L);
  }
  Lines = std::move(Kept);
}

} // namespace

std::vector<uint32_t>
bugassist::candidateLines(const LocalizationReport &Report) {
  std::vector<uint32_t> Lines;
  std::set<uint32_t> Seen;
  for (const Diagnosis &D : Report.Diagnoses)
    for (uint32_t L : D.Lines)
      if (Seen.insert(L).second)
        Lines.push_back(L);
  return Lines;
}

RepairResult bugassist::repairProgram(
    const Program &Prog, const BugAssistDriver &Driver,
    const std::string &Entry, const std::vector<InputVector> &FailingTests,
    const Spec &S, const std::vector<int64_t> *GoldenPerTest,
    const RepairOptions &Opts, MaxSatSession *Session,
    LocalizationReport *Report) {
  RepairResult Result;
  const TraceFormula &TF = Driver.formula();
  const UnrollOptions &Unroll = Driver.unrollOptions();

  // One deadline for the whole request: localization, the prescreen and
  // every candidate's verification answer to it.
  LocalizeOptions Localize = Opts.Localize;
  Localize.Budget.startClock();
  const QueryBudget &Clock = Localize.Budget;

  Spec S0 = S;
  if (GoldenPerTest && !GoldenPerTest->empty())
    S0.GoldenReturn = (*GoldenPerTest)[0];

  // Bind the first failing test to one session, which localizes and
  // prescreens: the caller's, or a fresh one preprocessed here under the
  // request budget (a given session comes preprocessed).
  std::vector<uint32_t> Lines = Opts.CandidateLines;
  std::unique_ptr<MaxSatSession> Own;
  if (FailingTests.empty() || (!Lines.empty() && !Opts.PrescreenLines)) {
    Session = nullptr; // nothing to localize or prescreen
  } else {
    if (!Session) {
      Own = makeLocalizationSession(TF.sharedInstance(), Localize);
      Session = Own.get();
    }
    for (const Clause &C : TF.testClauses(FailingTests[0], S0))
      Session->addHardClause(C);
    if (Own) {
      if (Localize.Budget.any())
        Own->setBudget(Localize.Budget.solverBudget());
      Own->solver().preprocess();
    }
  }

  // Step 1 (Algorithm 2, line 1): localize unless lines were given, and
  // then prescreen on a clone taken before the first solve. Keep the lines
  // in diagnosis order -- the first CoMSS is the most likely fix location
  // and is mutated first.
  MaxSatSession *Screen = Opts.PrescreenLines ? Session : nullptr;
  std::unique_ptr<MaxSatSession> Clone;
  if (Lines.empty() && Session) {
    if (Screen) {
      Clone = Session->clone();
      Screen = Clone.get();
    }
    LocalizationReport R =
        enumerateCoMSSesOn(*Session, TF.encoded().Formula, Localize);
    Lines = candidateLines(R);
    // A budget-stopped localization leaves lines unsearched: no candidate
    // list drawn from it is exhaustive.
    Result.Truncated = R.Incomplete;
    if (Report)
      *Report = std::move(R);
    if (Lines.empty())
      return Result; // no diagnosis, no line to mutate
  }
  Result.SuspectLines = Lines;
  Result.Stats.LinesConsidered = Lines.size();
  if (Screen)
    prescreenLines(*Screen, TF.encoded().Formula, Lines, Opts.VerifyBudget,
                   Clock.deadline(), Result.Stats);

  // Step 2: plan and screen the candidate edits.
  std::vector<Edit> Plan = planEdits(Prog, Lines, Opts);
  Result.Stats.CandidatesPlanned = Plan.size();

  ExecOptions IOpts;
  IOpts.BitWidth = Unroll.BitWidth;
  IOpts.CheckArrayBounds = Unroll.CheckArrayBounds;
  IOpts.CheckDivByZero = false; // encoder-aligned
  if (Opts.MaxInterpSteps)
    IOpts.MaxSteps = Opts.MaxInterpSteps;

  for (const Edit &E : Plan) {
    if (Result.CandidatesTried >= Opts.MaxCandidates || Clock.expired()) {
      Result.Truncated = true;
      break;
    }
    ++Result.CandidatesTried;
    std::unique_ptr<Program> Mutant = applyEdit(Prog, E);
    if (!Mutant) {
      ++Result.Stats.SemaRejected;
      continue;
    }

    // Screen: every failing test must now satisfy the spec concretely.
    Interpreter Interp(*Mutant, IOpts);
    bool AllPass = true;
    for (size_t T = 0; T < FailingTests.size() && AllPass; ++T) {
      ExecResult R = Interp.run(Entry, FailingTests[T]);
      if (R.Status != ExecStatus::Ok) {
        AllPass = false;
        break;
      }
      if (GoldenPerTest && R.ReturnValue != (*GoldenPerTest)[T])
        AllPass = false;
      else if (!GoldenPerTest && S.GoldenReturn &&
               R.ReturnValue != *S.GoldenReturn)
        AllPass = false;
    }
    if (!AllPass) {
      ++Result.Stats.TestScreenRejected;
      continue;
    }

    // Verify: bounded model checking must find no violation (Algorithm 2,
    // lines 6-9). With per-test goldens the global spec is obligations
    // only; the goldens were already screened above.
    Spec VerifySpec = S;
    if (GoldenPerTest)
      VerifySpec.GoldenReturn = std::nullopt;
    if (VerifySpec.CheckObligations || VerifySpec.GoldenReturn) {
      UnrolledProgram UP = unrollProgram(*Mutant, Entry, Unroll);
      EncodeOptions EO;
      EO.BitWidth = Unroll.BitWidth;
      TraceFormula MutantTF(encodeProgram(UP, EO));
      ++Result.Stats.FormulaBuilds;
      bool Decided = false;
      auto Cex = MutantTF.findCounterexample(VerifySpec, Decided,
                                             Opts.VerifyBudget,
                                             Clock.deadline());
      if (Cex.has_value() || !Decided) {
        ++Result.Stats.BmcRejected;
        continue;
      }
    }

    Result.Found = true;
    Result.Suggestion.Line = E.Line;
    Result.Suggestion.Description = E.Description;
    Result.Suggestion.FixedProgram = std::move(Mutant);
    Result.Stats.CandidatesTried = Result.CandidatesTried;
    return Result;
  }
  Result.Stats.CandidatesTried = Result.CandidatesTried;
  return Result;
}
