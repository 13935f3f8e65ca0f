//===- Command.cpp - One runner for the served commands -------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Command.h"

#include "cnf/DimacsReader.h"
#include "maxsat/Answer.h"

#include <cassert>

using namespace bugassist;

namespace {

/// Reports \p S to Env.Solving for the scope's lifetime.
class SolvingScope {
public:
  SolvingScope(const CommandEnv &Env, MaxSatSession *S)
      : Env(Env), On(S && Env.Solving) {
    if (On)
      Env.Solving(&S->solver());
  }
  ~SolvingScope() {
    if (On)
      Env.Solving(nullptr);
  }

private:
  const CommandEnv &Env;
  bool On;
};

/// localize and repair on a resolved mini-C program.
CommandResult runProgram(const CommandOptions &O, const QueryBudget &Budget,
                         const CommandEnv &Env) {
  RepairRequest Q = O.Query;
  Q.Localize.Budget = Budget;
  ResolvedProgram P;
  if (Env.Resolve) {
    P = Env.Resolve(O);
  } else {
    P.Owned = prepareProgram(O.Source, Q.Entry, Q.Unroll, Q.Encode, P.Error,
                             &P.Code);
    P.Prepared = P.Owned.get();
  }
  if (!P.Prepared)
    return CommandResult::failure(
        P.Code, P.Code == ErrorCode::CompileError
                    ? "program does not compile: " + P.Error
                    : P.Error);

  // Repair's hook covers its localization; the prescreen and candidate
  // verifications answer to verify_budget and the request's deadline.
  SolvingScope Scope(Env, P.Session.get());
  CommandResult Out;
  if (O.Cmd == Command::Localize) {
    if (O.Stats) {
      const EncodedProgram &EP = P.Prepared->Driver->formula().encoded();
      Out.OutsideClauses = EP.numOutsideClauses();
      Out.ConeClauses = EP.Formula.numClauses() - Out.OutsideClauses;
    }
    PipelineResult Res = runLocalizePipeline(
        *P.Prepared, firstTestRequest(Q), P.Session.get());
    if (Res.Status == PipelineStatus::InputNotFailing)
      return CommandResult::failure(Res.Code,
                                    "nothing to localize: " + Res.Message);
    Out.Code = Res.Code;
    Out.Body = renderLocalizeOutput(Res, O.Json);
    Out.Searched = Res.Status == PipelineStatus::Localized;
    Out.SatCalls = Res.Report.SatCalls;
    Out.Search = Res.Report.Search;
    Out.ProbeConflicts = Res.Report.ProbeConflicts;
    return Out;
  }
  RepairPipelineResult Res =
      runRepairPipeline(*P.Prepared, Q, P.Session.get());
  if (Res.Status != PipelineStatus::Localized)
    return CommandResult::failure(Res.Code,
                                  "nothing to repair: " + Res.Message);
  Out.Code = Res.Code;
  Out.Body = renderRepairOutput(Res, O.Json);
  Out.Searched = true;
  Out.SatCalls = Res.Report.SatCalls + Res.Repair.Stats.PrescreenSatCalls;
  Out.Search = Res.Report.Search;
  return Out;
}

/// maxsat: \p D as partial weighted MaxSAT, with an anytime answer.
CommandResult runMaxSat(const CommandOptions &O, DimacsInstance D,
                        const QueryBudget &Budget, const CommandEnv &Env) {
  CommandResult Out;
  bool FromWcnf = D.Weighted;
  MaxSatInstance Inst = toMaxSatInstance(std::move(D));
  Inst.Witness = O.Model; // no v line, no model to rebuild
  if (Env.CommentLabel)
    Out.Body = std::string("c ") + Env.CommentLabel + ": " +
               std::to_string(Inst.NumVars) + " vars, " +
               std::to_string(Inst.Hard.size()) + " hard, " +
               std::to_string(Inst.Soft.size()) + " soft" +
               (FromWcnf ? "" : " (cnf)") + "\n";

  Solver::Options SOpts;
  SOpts.Preprocess = O.Query.Localize.Preprocess;
  Solver::Budget Bud = Budget.solverBudget();
  MaxSatResult R; // Unknown when the variables alone overflow the cap
  if (Bud.admitsVars(Inst.NumVars)) {
    std::unique_ptr<MaxSatSession> Session =
        makeFuMalikSession(Inst, /*ConflictBudget=*/0, SOpts);
    if (Budget.any())
      Session->setBudget(Bud);
    SolvingScope Scope(Env, Session.get());
    R = Session->solve();
  }
  Out.Body += renderMaxSatAnswer(R, Inst.NumVars, O.Model,
                                 /*Comments=*/Env.CommentLabel != nullptr);
  Out.Code = R.Status == MaxSatStatus::Unknown ? ErrorCode::BudgetExhausted
                                               : ErrorCode::Ok;
  Out.SatCalls = R.SatCalls;
  Out.Search = R.Search;
  return Out;
}

/// sat: \p D with its soft clauses decided as hard; the comment lines warn
/// instead of silently deciding a different formula.
CommandResult runSat(const CommandOptions &O, DimacsInstance D,
                     const QueryBudget &Budget, const CommandEnv &Env) {
  CommandResult Out;
  std::vector<Clause> Clauses = std::move(D.Hard);
  if (Env.CommentLabel && !D.Soft.empty())
    Out.Body = "c warning: treating " + std::to_string(D.Soft.size()) +
               " soft clauses as hard (use the maxsat command for "
               "optimization)\n";
  for (DimacsSoftClause &C : D.Soft)
    Clauses.push_back(std::move(C.Lits));
  if (Env.CommentLabel)
    Out.Body += std::string("c ") + Env.CommentLabel + ": " +
                std::to_string(D.NumVars) + " vars, " +
                std::to_string(Clauses.size()) + " clauses\n";

  Solver::Options SOpts;
  SOpts.Preprocess = O.Query.Localize.Preprocess;
  SatAnswer R =
      solveSat(Clauses, D.NumVars, O.Model, SOpts, Budget.solverBudget());
  Out.Body += renderSatAnswer(R, D.NumVars, O.Model);
  Out.Code =
      R.Result == LBool::Undef ? ErrorCode::BudgetExhausted : ErrorCode::Ok;
  Out.SatCalls = 1; // one solve call
  Out.Search = R.Stats;
  return Out;
}

} // namespace

CommandResult bugassist::runCommand(const CommandOptions &O,
                                    const CommandEnv &Env) {
  // The budget covers the whole command, resolving the program included.
  QueryBudget Budget = O.Query.Localize.Budget;
  Budget.startClock();
  if (O.Cmd == Command::Localize || O.Cmd == Command::Repair)
    return runProgram(O, Budget, Env);

  assert(O.Cmd == Command::MaxSat || O.Cmd == Command::Sat);
  bool MaxSat = O.Cmd == Command::MaxSat;
  DimacsParseError Err;
  auto Parsed = parseDimacs(O.Source, Err);
  if (!Parsed)
    return CommandResult::failure(
        ErrorCode::BadDimacs,
        (MaxSat ? "bad wcnf: " : "bad cnf: ") + Err.render());
  CommandResult Out = MaxSat ? runMaxSat(O, std::move(*Parsed), Budget, Env)
                             : runSat(O, std::move(*Parsed), Budget, Env);
  Out.Searched = true;
  return Out;
}
