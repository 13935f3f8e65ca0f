//===- tcas_mutants.cpp - Workload: seeded TCAS mutant localize/repair ----===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// One op is one generated TCAS mutant: each of its <= 4 failing pool tests
// is localized through the one-shot runLocalizePipeline(Program, ...) at
// width 1, and when a localization hits the injected fault line the
// mutant is repaired through runRepairPipeline. Many small formulas, each
// paying its own session build and preprocessing pass.
//
// The mutants come from a fixed universe (one MutantGenerator stream), so
// every op's output can be checked against perfbench/expected.txt; the
// run's seed picks the order in which the universe is visited, and a run
// measures whole passes over it.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "lang/Sema.h"
#include "mutate/MutantGenerator.h"
#include "programs/Tcas.h"

#include <algorithm>

using namespace perfbench;
using namespace bugassist;

namespace {

constexpr uint64_t UniverseSeed = 20110601;
// Small enough that a run visits the whole universe at least once (the
// seed orders it), so every run measures the same multiset of mutants.
constexpr size_t UniverseSize = 80;
constexpr size_t PoolSize = 400;
constexpr size_t MaxFailing = 4;
constexpr size_t MaxPassing = 8;

ExecOptions poolExecOptions() {
  ExecOptions EO;
  EO.BitWidth = tcasUnrollOptions().BitWidth;
  EO.CheckArrayBounds = false;
  EO.CheckDivByZero = false;
  EO.MaxSteps = 100000;
  return EO;
}

struct Universe {
  std::unique_ptr<Program> Base;
  std::vector<GeneratedMutant> Mutants;
  std::vector<FailingTests> Tests;
  /// Universe indices of mutants with at least one failing pool test.
  std::vector<size_t> Failing;

  void build() {
    DiagEngine Diags;
    {
      SpanScope S("lang.setup_parse");
      Base = parseAndAnalyze(tcasSource(), Diags);
    }
    MutantGeneratorOptions GO;
    GO.Seed = UniverseSeed;
    GO.ProtectedLines = tcasUnrollOptions().HardLines;
    {
      SpanScope S("mutate.generate");
      MutantGenerator Gen(*Base, GO);
      Mutants = Gen.generate(UniverseSize);
    }
    std::vector<InputVector> Pool = tcasTestPool(PoolSize);
    SpanScope S("interp.segregate");
    ExecOptions EO = poolExecOptions();
    std::vector<int64_t> Golden = goldenOutputs(*Base, Pool, "main", EO);
    Tests.clear();
    Failing.clear();
    for (size_t I = 0; I < Mutants.size(); ++I) {
      Tests.push_back(segregateFailingTests(Golden, *Mutants[I].Prog, Pool,
                                            "main", EO, MaxFailing,
                                            MaxPassing));
      if (!Tests.back().Inputs.empty())
        Failing.push_back(I);
    }
  }
};

/// What one mutant op produced besides its rendered bytes.
struct MutantOutcome {
  bool Localized = false;
  bool Hit = false;
  bool Repaired = false;
  /// The repair run and the tests it screened, for the Interpreter
  /// re-check of an accepted fix.
  RepairPipelineResult Repair;
  std::vector<InputVector> RepairInputs;
  std::vector<int64_t> RepairGoldens;
};

OpOutput runMutant(Universe &U, size_t Idx, bool Traced, MutantOutcome &MO) {
  GeneratedMutant &M = U.Mutants[Idx];
  const FailingTests &FT = U.Tests[Idx];
  PipelineRequest Req;
  Req.Unroll = tcasUnrollOptions();
  Req.CheckObligations = false;
  Req.Localize.MaxDiagnoses = 8;

  OpOutput Out;
  MO = MutantOutcome();
  for (size_t T = 0; T < FT.Inputs.size(); ++T) {
    Req.Input = FT.Inputs[T];
    Req.GoldenReturn = FT.Goldens[T];
    PipelineResult PR;
    OpOutput O = Traced ? localizeTraced(*M.Prog, Req, &PR)
                        : localizeOneShot(*M.Prog, Req, &PR);
    Out.Text += O.Text;
    Out.Counters += O.Counters + ";";
    if (PR.Status != PipelineStatus::Localized)
      continue;
    MO.Localized = true;
    const std::vector<uint32_t> &L = PR.Report.AllLines;
    MO.Hit = MO.Hit || std::find(L.begin(), L.end(), M.Spec.Line) != L.end();
  }
  if (!MO.Hit)
    return Out;

  RepairRequest RR;
  RR.Unroll = Req.Unroll;
  RR.CheckObligations = false;
  RR.Localize = Req.Localize;
  RR.Inputs = FT.Inputs;
  RR.Goldens = FT.Goldens;
  RR.Inputs.insert(RR.Inputs.end(), FT.PassingInputs.begin(),
                   FT.PassingInputs.end());
  RR.Goldens.insert(RR.Goldens.end(), FT.PassingGoldens.begin(),
                    FT.PassingGoldens.end());
  RR.Repair.MaxCandidates = 64;

  // The prepared program borrows the mutant for the op and hands it back.
  PreparedProgram P;
  P.Prog = std::move(M.Prog);
  {
    SpanScope S("bmc.prepare");
    P.Driver = std::make_unique<BugAssistDriver>(*P.Prog, RR.Entry, RR.Unroll,
                                                 RR.Encode);
  }
  RepairPipelineResult RP;
  {
    SpanScope S("core.repair");
    RP = runRepairPipeline(P, RR);
  }
  {
    SpanScope S("core.render");
    Out.Text += renderRepairOutput(RP, /*Json=*/false);
  }
  {
    SpanScope S("bmc.release");
    P.Driver.reset();
  }
  M.Prog = std::move(P.Prog);

  MO.Repaired = RP.Repair.Found;
  countRepair(RP.Repair);
  MO.Repair = std::move(RP);
  MO.RepairInputs = std::move(RR.Inputs);
  MO.RepairGoldens = std::move(RR.Goldens);
  return Out;
}

std::string expectedValue(const OpOutput &Out, const MutantOutcome &MO) {
  return hex64(fnv1a(Out.Text)) + " hit=" + (MO.Hit ? "1" : "0") +
         " repaired=" + (MO.Repaired ? "1" : "0");
}

} // namespace

RunResult perfbench::runTcasMutants(const Args &A, const Expected &E) {
  RunResult R;
  R.Localizes = R.Repairs = true;
  Universe U;
  auto Setup = [&] { U.build(); };
  runSetup(A, R, Setup, 3);
  std::vector<size_t> Order = seededOrder(U.Failing.size(), A.Seed);

  MutantOutcome Last;
  auto Run = [&](size_t Item, bool Traced) {
    return runMutant(U, U.Failing[Order[Item]], Traced, Last);
  };
  auto Check = [&](size_t Item, const OpOutput &Out) {
    size_t Idx = U.Failing[Order[Item]];
    std::string Key = "tcas-mutants " + std::to_string(Idx);
    R.Localized += Last.Localized;
    R.Hits += Last.Hit;
    R.RepairAttempts += Last.Hit;
    R.Repaired += Last.Repaired;
    std::string Bad = verifyRepair(Last.Repair.Repair, Last.RepairInputs,
                                   Last.RepairGoldens, poolExecOptions());
    if (!Bad.empty())
      R.fail(Key + ": " + Bad);
    const std::string *Want = E.find(Key);
    std::string Got = expectedValue(Out, Last);
    if (!Want)
      R.fail(Key + ": no expected entry");
    else if (*Want != Got)
      R.fail(Key + ": expected " + *Want + ", got " + Got);
  };
  driveOps(A, Order.size(), Run, Check, R, /*RoundSize=*/Order.size(), Setup);
  return R;
}

void perfbench::recordTcasMutants(std::string &Out) {
  Universe U;
  U.build();
  for (size_t Idx : U.Failing) {
    MutantOutcome MO;
    OpOutput O = runMutant(U, Idx, /*Traced=*/false, MO);
    Out += "tcas-mutants " + std::to_string(Idx) + " = " +
           expectedValue(O, MO) + "\n";
  }
}
