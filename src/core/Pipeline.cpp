//===- Pipeline.cpp - End-to-end localization pipeline ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "interp/Interpreter.h"
#include "lang/AstPrinter.h"

#include <algorithm>
#include <charconv>
#include <map>

using namespace bugassist;

namespace {

/// Interpreter options agreeing with the encoding the pipeline builds:
/// same bit width, same bounds checking. Division-by-zero trapping follows
/// the obligation setting (the encoder emits obligations for both).
ExecOptions execOptionsFor(const PipelineRequest &R) {
  ExecOptions EO;
  EO.BitWidth = R.Unroll.BitWidth;
  EO.CheckArrayBounds = R.Unroll.CheckArrayBounds && R.CheckObligations;
  EO.CheckDivByZero = R.CheckObligations;
  return EO;
}

/// Does \p Run violate the spec of \p R?
bool violatesSpec(const ExecResult &Run, const PipelineRequest &R) {
  if (R.CheckObligations && Run.failed())
    return true;
  if (R.GoldenReturn && Run.Status == ExecStatus::Ok &&
      Run.ReturnValue != *R.GoldenReturn)
    return true;
  return false;
}

void appendDiagnosisLines(std::string &Out, const Diagnosis &D) {
  for (size_t J = 0; J < D.Lines.size(); ++J) {
    Out += ' ';
    Out += std::to_string(D.Lines[J]);
    if (J < D.Unwindings.size() && D.Unwindings[J] != 0) {
      Out += '@';
      Out += std::to_string(D.Unwindings[J]);
    }
  }
}

/// Per-line hit counts over all diagnoses, ordered by hits descending then
/// line ascending -- the single-run analogue of core/Ranking.h.
std::vector<std::pair<uint32_t, size_t>>
lineHits(const LocalizationReport &R) {
  std::map<uint32_t, size_t> Hits;
  for (const Diagnosis &D : R.Diagnoses) {
    std::vector<uint32_t> Unique(D.Lines);
    std::sort(Unique.begin(), Unique.end());
    Unique.erase(std::unique(Unique.begin(), Unique.end()), Unique.end());
    for (uint32_t L : Unique)
      ++Hits[L];
  }
  std::vector<std::pair<uint32_t, size_t>> Order(Hits.begin(), Hits.end());
  std::sort(Order.begin(), Order.end(),
            [](const auto &A, const auto &B) {
              return A.second != B.second ? A.second > B.second
                                          : A.first < B.first;
            });
  return Order;
}

/// The front of every query: judge the given input concretely (or find
/// one by BMC) and fill Res.FailingInput / Res.SpecUsed. \returns false
/// with Res filled when there is nothing to localize.
bool judgeInput(const Program &Prog, const BugAssistDriver &Driver,
                const PipelineRequest &R, PipelineResult &Res) {
  Res.SpecUsed.CheckObligations = R.CheckObligations;
  Res.SpecUsed.GoldenReturn = R.GoldenReturn;

  if (R.Input) {
    // Sanity-check the given input concretely before blaming anything:
    // a passing input would make the MaxSAT instance satisfiable at cost
    // zero and the report vacuous.
    Interpreter I(Prog, execOptionsFor(R));
    ExecResult Run = I.run(R.Entry, *R.Input);
    if (Run.Status == ExecStatus::SetupError) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      Res.Message = "input does not match the entry function's parameters";
      return false;
    }
    if (Run.Status == ExecStatus::AssumeFail) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      Res.Message = "input rejected by an assume(): execution infeasible";
      return false;
    }
    if (!violatesSpec(Run, R)) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      if (Run.Status != ExecStatus::Ok) {
        // Reachable only when the run aborted but obligations are not
        // part of the spec (or the step limit hit): there is no return
        // value to judge and nothing this spec blames.
        const char *Kind = Run.Status == ExecStatus::AssertFail
                               ? "an assert failure"
                               : Run.Status == ExecStatus::BoundsFail
                                     ? "an out-of-bounds access"
                                     : Run.Status == ExecStatus::DivByZero
                                           ? "a division by zero"
                                           : "the step limit";
        Res.Message = std::string("input stops on ") + Kind +
                      ", which the requested spec does not count as a "
                      "failure";
      } else if (R.GoldenReturn) {
        Res.Message = "input returns " + std::to_string(Run.ReturnValue) +
                      ", matching the golden value; the spec holds";
      } else {
        Res.Message = "input satisfies every obligation; the spec holds";
      }
      return false;
    }
    Res.FailingInput = *R.Input;
  } else {
    // No input given: find one by bounded model checking (Section 4.1).
    auto Cex = Driver.findCounterexample(Res.SpecUsed, R.BmcConflictBudget);
    if (!Cex) {
      Res.Status = PipelineStatus::NoCounterexample;
      Res.Code = ErrorCode::Ok;
      Res.Message = "no spec violation found within the unwinding bounds";
      return false;
    }
    Res.FailingInput = *Cex;
  }
  return true;
}

/// The query-answering back half shared by the one-shot and prepared
/// paths: judge the input, then enumerate CoMSSes (on \p Session when
/// given; see localizeFault).
PipelineResult runOnDriver(const Program &Prog, const BugAssistDriver &Driver,
                           const PipelineRequest &R, MaxSatSession *Session) {
  PipelineResult Res;
  if (!judgeInput(Prog, Driver, R, Res))
    return Res;
  Res.Report = localizeFault(Driver.formula(), Res.FailingInput, Res.SpecUsed,
                             R.Localize, Session);
  Res.Status = PipelineStatus::Localized;
  Res.Code = Res.Report.Incomplete ? ErrorCode::BudgetExhausted : ErrorCode::Ok;
  return Res;
}

std::string noFunctionMessage(const std::string &Entry) {
  return "no function '" + Entry + "' in the program";
}

/// Rejects a request whose entry function \p Prog does not define, before
/// anything unrolls it. \returns true (with \p Res filled) when rejected.
template <typename ResultT>
bool rejectMissingEntry(const Program &Prog, const std::string &Entry,
                        ResultT &Res) {
  if (Prog.findFunction(Entry))
    return false;
  Res.Status = PipelineStatus::InputNotFailing;
  Res.Code = ErrorCode::BadRequest;
  Res.Message = noFunctionMessage(Entry);
  return true;
}

} // namespace

PipelineResult bugassist::runLocalizePipeline(const Program &Prog,
                                              const PipelineRequest &R) {
  PipelineResult Res;
  if (rejectMissingEntry(Prog, R.Entry, Res))
    return Res;
  BugAssistDriver Driver(Prog, R.Entry, R.Unroll, R.Encode);
  return runOnDriver(Prog, Driver, R, /*Session=*/nullptr);
}

PipelineResult bugassist::runLocalizePipeline(std::string_view Source,
                                              const PipelineRequest &R) {
  DiagEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    PipelineResult Res;
    Res.Status = PipelineStatus::CompileError;
    Res.Code = ErrorCode::CompileError;
    Res.Message = Diags.render();
    return Res;
  }
  return runLocalizePipeline(*Prog, R);
}

std::unique_ptr<PreparedProgram>
bugassist::prepareProgram(std::string_view Source, const std::string &Entry,
                          const UnrollOptions &Unroll,
                          const EncodeOptions &Encode, std::string &Error,
                          ErrorCode *Code) {
  DiagEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    Error = Diags.render();
    if (Code)
      *Code = ErrorCode::CompileError;
    return nullptr;
  }
  if (!Prog->findFunction(Entry)) {
    Error = noFunctionMessage(Entry);
    if (Code)
      *Code = ErrorCode::BadRequest;
    return nullptr;
  }
  auto P = std::make_unique<PreparedProgram>();
  P->Driver =
      std::make_unique<BugAssistDriver>(*Prog, Entry, Unroll, Encode);
  P->Prog = std::move(Prog);
  return P;
}

PipelineResult bugassist::runLocalizePipeline(const PreparedProgram &P,
                                              const PipelineRequest &R,
                                              MaxSatSession *Session) {
  return runOnDriver(*P.Prog, *P.Driver, R, Session);
}

std::vector<int64_t> bugassist::goldenOutputs(
    const Program &Golden, const std::vector<InputVector> &Pool,
    const std::string &Entry, const ExecOptions &EO) {
  Interpreter GI(Golden, EO);
  std::vector<int64_t> Out;
  Out.reserve(Pool.size());
  for (const InputVector &In : Pool)
    Out.push_back(GI.run(Entry, In).ReturnValue);
  return Out;
}

FailingTests bugassist::segregateFailingTests(
    const Program &Golden, const Program &Faulty,
    const std::vector<InputVector> &Pool, const std::string &Entry,
    const ExecOptions &EO, size_t MaxTests, size_t MaxPassing) {
  FailingTests Out;
  Out.PoolSize = Pool.size();
  Interpreter GI(Golden, EO);
  Interpreter FI(Faulty, EO);
  for (const InputVector &In : Pool) {
    if (Out.Inputs.size() >= MaxTests &&
        Out.PassingInputs.size() >= MaxPassing)
      break;
    int64_t Want = GI.run(Entry, In).ReturnValue;
    if (FI.run(Entry, In).ReturnValue != Want) {
      if (Out.Inputs.size() < MaxTests) {
        Out.Inputs.push_back(In);
        Out.Goldens.push_back(Want);
      }
    } else if (Out.PassingInputs.size() < MaxPassing) {
      Out.PassingInputs.push_back(In);
      Out.PassingGoldens.push_back(Want);
    }
  }
  return Out;
}

FailingTests bugassist::segregateFailingTests(
    const std::vector<int64_t> &GoldenOut, const Program &Faulty,
    const std::vector<InputVector> &Pool, const std::string &Entry,
    const ExecOptions &EO, size_t MaxTests, size_t MaxPassing) {
  FailingTests Out;
  Out.PoolSize = Pool.size();
  Interpreter FI(Faulty, EO);
  for (size_t I = 0; I < Pool.size(); ++I) {
    if (Out.Inputs.size() >= MaxTests &&
        Out.PassingInputs.size() >= MaxPassing)
      break;
    if (FI.run(Entry, Pool[I]).ReturnValue != GoldenOut[I]) {
      if (Out.Inputs.size() < MaxTests) {
        Out.Inputs.push_back(Pool[I]);
        Out.Goldens.push_back(GoldenOut[I]);
      }
    } else if (Out.PassingInputs.size() < MaxPassing) {
      Out.PassingInputs.push_back(Pool[I]);
      Out.PassingGoldens.push_back(GoldenOut[I]);
    }
  }
  return Out;
}

std::string bugassist::renderInputVector(const InputVector &In) {
  std::string Out;
  for (size_t I = 0; I < In.size(); ++I) {
    if (I)
      Out += ',';
    if (In[I].IsArray) {
      Out += '[';
      for (size_t J = 0; J < In[I].Array.size(); ++J) {
        if (J)
          Out += ',';
        Out += std::to_string(In[I].Array[J]);
      }
      Out += ']';
    } else {
      Out += std::to_string(In[I].Scalar);
    }
  }
  return Out;
}

namespace {

bool parseScalar(std::string_view T, int64_t &Out) {
  // Trim surrounding whitespace; from_chars is strict about the rest.
  while (!T.empty() && (T.front() == ' ' || T.front() == '\t'))
    T.remove_prefix(1);
  while (!T.empty() && (T.back() == ' ' || T.back() == '\t'))
    T.remove_suffix(1);
  if (T.empty())
    return false;
  const char *B = T.data(), *E = T.data() + T.size();
  auto [P, Ec] = std::from_chars(B, E, Out);
  return Ec == std::errc() && P == E;
}

} // namespace

std::optional<InputVector> bugassist::parseInputVector(std::string_view Text,
                                                       std::string &Error) {
  InputVector Out;
  size_t Pos = 0;
  auto skipWs = [&] {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t'))
      ++Pos;
  };
  skipWs();
  if (Pos == Text.size())
    return Out; // empty vector: entry with no parameters
  for (;;) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '[') {
      size_t Close = Text.find(']', Pos);
      if (Close == std::string_view::npos) {
        Error = "unterminated '[' in input";
        return std::nullopt;
      }
      std::vector<int64_t> Elems;
      std::string_view Inner = Text.substr(Pos + 1, Close - Pos - 1);
      size_t Start = 0;
      bool Empty = true;
      for (size_t I = 0; I <= Inner.size(); ++I) {
        if (I == Inner.size() || Inner[I] == ',') {
          std::string_view Item = Inner.substr(Start, I - Start);
          bool Blank = true;
          for (char C : Item)
            Blank = Blank && (C == ' ' || C == '\t');
          if (!Blank) {
            int64_t V;
            if (!parseScalar(Item, V)) {
              Error = "bad array element '" + std::string(Item) + "'";
              return std::nullopt;
            }
            Elems.push_back(V);
            Empty = false;
          } else if (!Empty || I != Inner.size()) {
            Error = "empty array element";
            return std::nullopt;
          }
          Start = I + 1;
        }
      }
      Out.push_back(InputValue::array(std::move(Elems)));
      Pos = Close + 1;
    } else {
      size_t End = Pos;
      while (End < Text.size() && Text[End] != ',')
        ++End;
      int64_t V;
      if (!parseScalar(Text.substr(Pos, End - Pos), V)) {
        Error = "bad input value '" +
                std::string(Text.substr(Pos, End - Pos)) + "'";
        return std::nullopt;
      }
      Out.push_back(InputValue::scalar(V));
      Pos = End;
    }
    skipWs();
    if (Pos == Text.size())
      break;
    if (Text[Pos] != ',') {
      Error = std::string("expected ',' before '") + Text[Pos] + "'";
      return std::nullopt;
    }
    ++Pos;
  }
  return Out;
}

bool bugassist::parseHardLinesSpec(std::string_view Spec,
                                   std::set<uint32_t> &Out) {
  constexpr int64_t MaxLine = 1000000;
  auto parseLine = [](std::string_view T, int64_t &V) {
    if (T.empty())
      return false;
    const char *B = T.data(), *E = T.data() + T.size();
    auto [P, Ec] = std::from_chars(B, E, V);
    return Ec == std::errc() && P == E;
  };
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string_view::npos)
      End = Spec.size();
    std::string_view Item = Spec.substr(Pos, End - Pos);
    if (Item.empty())
      return false;
    size_t Dash = Item.find('-');
    int64_t Lo = 0, Hi = 0;
    if (Dash == std::string_view::npos) {
      if (!parseLine(Item, Lo) || Lo < 1 || Lo > MaxLine)
        return false;
      Hi = Lo;
    } else {
      if (!parseLine(Item.substr(0, Dash), Lo) ||
          !parseLine(Item.substr(Dash + 1), Hi) || Lo < 1 || Hi < Lo ||
          Hi > MaxLine)
        return false;
    }
    for (int64_t L = Lo; L <= Hi; ++L)
      Out.insert(static_cast<uint32_t>(L));
    Pos = End + 1;
    if (End == Spec.size())
      break;
  }
  return true;
}

std::string bugassist::renderLocalizationReport(const LocalizationReport &R) {
  std::string Out;
  for (size_t I = 0; I < R.Diagnoses.size(); ++I) {
    const Diagnosis &D = R.Diagnoses[I];
    Out += "diagnosis " + std::to_string(I + 1) + " (cost " +
           std::to_string(D.Cost) + "): line" +
           (D.Lines.size() > 1 ? "s" : "");
    appendDiagnosisLines(Out, D);
    Out += '\n';
  }
  Out += "suspect lines:";
  for (uint32_t L : R.AllLines)
    Out += ' ' + std::to_string(L);
  Out += '\n';
  if (!R.Diagnoses.empty()) {
    Out += "line  hits\n";
    for (const auto &[Line, Hits] : lineHits(R))
      Out += "  " + std::to_string(Line) + "  " + std::to_string(Hits) + "/" +
             std::to_string(R.Diagnoses.size()) + "\n";
  }
  if (R.Exhausted)
    Out += "no more suspects (enumeration exhausted after " +
           std::to_string(R.Diagnoses.size()) + " diagnoses)\n";
  else if (R.Incomplete)
    // Deterministic at every thread count: only the count of *completed*
    // diagnoses appears, never the budget-dependent partial state.
    Out += "INCOMPLETE: resource budget exhausted after " +
           std::to_string(R.Diagnoses.size()) +
           " diagnoses (more may exist)\n";
  else
    Out += "diagnosis cap reached (" + std::to_string(R.Diagnoses.size()) +
           " diagnoses; more may exist)\n";
  return Out;
}

std::string bugassist::renderLocalizationJson(const LocalizationReport &R) {
  std::string Out = "{\n  \"diagnoses\": [";
  for (size_t I = 0; I < R.Diagnoses.size(); ++I) {
    const Diagnosis &D = R.Diagnoses[I];
    Out += I ? ",\n    " : "\n    ";
    Out += "{\"cost\": " + std::to_string(D.Cost) + ", \"lines\": [";
    for (size_t J = 0; J < D.Lines.size(); ++J)
      Out += (J ? ", " : "") + std::to_string(D.Lines[J]);
    Out += "], \"unwindings\": [";
    for (size_t J = 0; J < D.Unwindings.size(); ++J)
      Out += (J ? ", " : "") + std::to_string(D.Unwindings[J]);
    Out += "]}";
  }
  Out += R.Diagnoses.empty() ? "],\n" : "\n  ],\n";
  Out += "  \"suspect_lines\": [";
  for (size_t I = 0; I < R.AllLines.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(R.AllLines[I]);
  Out += "],\n  \"line_hits\": [";
  auto Hits = lineHits(R);
  for (size_t I = 0; I < Hits.size(); ++I)
    Out += std::string(I ? ", " : "") + "{\"line\": " +
           std::to_string(Hits[I].first) +
           ", \"hits\": " + std::to_string(Hits[I].second) + "}";
  Out += "],\n  \"exhausted\": ";
  Out += R.Exhausted ? "true" : "false";
  Out += ",\n  \"incomplete\": ";
  Out += R.Incomplete ? "true" : "false";
  Out += "\n}\n";
  return Out;
}

std::string bugassist::renderSearchStats(const LocalizationReport &R) {
  const SolverStats &S = R.Search;
  std::string Out;
  Out += "sat calls:    " + std::to_string(R.SatCalls) + "\n";
  Out += "conflicts:    " + std::to_string(S.Conflicts) + "\n";
  Out += "decisions:    " + std::to_string(S.Decisions) + "\n";
  Out += "propagations: " + std::to_string(S.Propagations) + "\n";
  Out += "restarts:     " + std::to_string(S.Restarts) + " (+" +
         std::to_string(S.RestartsBlocked) + " blocked)\n";
  Out += "learnts:      " + std::to_string(S.LearnedClauses) + " learned\n";
  // Every clause the arena freed: learnt reduction, but also elimination,
  // subsumption and root-level simplification.
  Out += "arena frees:  " + std::to_string(S.DeletedClauses) + "\n";
  // Rebuilds of eliminated variables' values; localization reads no
  // witness model, so anything but 0 here is wasted reconstruction.
  Out += "models:       " + std::to_string(S.ModelRebuilds) + " rebuilt\n";
  if (S.VarsEliminated || S.ClausesSubsumed || S.LitsSelfSubsumed)
    Out += "simplify:     " + std::to_string(S.VarsEliminated) +
           " vars eliminated, " + std::to_string(S.ClausesSubsumed) +
           " clauses subsumed, " + std::to_string(S.LitsSelfSubsumed) +
           " lits self-subsumed, " + std::to_string(S.ReconstructBytes) +
           " reconstruction bytes\n";
  return Out;
}

std::string bugassist::renderLocalizeOutput(const PipelineResult &Res,
                                            bool Json) {
  switch (Res.Status) {
  case PipelineStatus::CompileError:
  case PipelineStatus::InputNotFailing:
    return ""; // reported out of band, never on stdout
  case PipelineStatus::NoCounterexample:
    return Res.Message + "\n";
  case PipelineStatus::Localized:
    break;
  }
  if (!Json)
    return "failing input: " + renderInputVector(Res.FailingInput) + "\n" +
           renderLocalizationReport(Res.Report);
  std::string Out =
      "{\n  \"input\": \"" + renderInputVector(Res.FailingInput) +
      "\",\n  \"report\": ";
  std::string Rep = renderLocalizationJson(Res.Report);
  // Indent the nested object by two spaces to keep the output readable.
  for (size_t I = 0; I < Rep.size(); ++I) {
    Out += Rep[I];
    if (Rep[I] == '\n' && I + 1 < Rep.size())
      Out += "  ";
  }
  Out += "}\n";
  return Out;
}

RepairPipelineResult bugassist::runRepairPipeline(const PreparedProgram &P,
                                                  const RepairRequest &R,
                                                  MaxSatSession *Session) {
  RepairPipelineResult Out;
  if (rejectMissingEntry(*P.Prog, R.Entry, Out))
    return Out;
  if (R.Inputs.empty()) {
    Out.Status = PipelineStatus::InputNotFailing;
    Out.Code = ErrorCode::BadRequest;
    Out.Message = "repair requires at least one failing input";
    return Out;
  }
  if (!R.Goldens.empty() && R.Goldens.size() != R.Inputs.size()) {
    Out.Status = PipelineStatus::InputNotFailing;
    Out.Code = ErrorCode::BadRequest;
    Out.Message = "golden count does not match input count";
    return Out;
  }

  // One deadline for the whole request: judging, localization, the
  // prescreen and every candidate's verification answer to it.
  PipelineRequest L;
  L.Entry = R.Entry;
  L.Unroll = R.Unroll;
  L.Encode = R.Encode;
  L.Input = R.Inputs[0];
  if (!R.Goldens.empty())
    L.GoldenReturn = R.Goldens[0];
  L.CheckObligations = R.CheckObligations;
  L.Localize = R.Localize;
  L.Localize.Budget.startClock();

  // Judge Inputs[0] concretely (InputNotFailing when it meets the spec).
  PipelineResult LR;
  if (!judgeInput(*P.Prog, *P.Driver, L, LR)) {
    Out.Status = LR.Status;
    Out.Code = LR.Code;
    Out.Message = LR.Message;
    return Out;
  }
  Out.Status = PipelineStatus::Localized;
  Out.FailingInput = LR.FailingInput;

  // Repair localizes Inputs[0] on Session (or on its own session) and
  // takes the candidate lines from that report.
  RepairOptions RO = R.Repair;
  RO.CandidateLines.clear();
  RO.Localize = L.Localize;
  const std::vector<int64_t> *Goldens =
      R.Goldens.empty() ? nullptr : &R.Goldens;
  Out.Repair = repairProgram(*P.Prog, *P.Driver, R.Entry, R.Inputs,
                             LR.SpecUsed, Goldens, RO, Session, &Out.Report);

  if (Out.Report.Incomplete || (Out.Repair.Truncated && !Out.Repair.Found))
    Out.Code = ErrorCode::BudgetExhausted;
  else
    Out.Code = ErrorCode::Ok;
  return Out;
}

namespace {

/// Minimal JSON string escaping for the repair renderer (descriptions and
/// pretty-printed programs: quotes, backslashes, newlines, tabs).
void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
      break;
    }
  }
  Out += '"';
}

} // namespace

std::string bugassist::renderRepairOutput(const RepairPipelineResult &Res,
                                          bool Json) {
  switch (Res.Status) {
  case PipelineStatus::CompileError:
  case PipelineStatus::InputNotFailing:
  case PipelineStatus::NoCounterexample:
    return ""; // reported out of band, never on stdout
  case PipelineStatus::Localized:
    break;
  }
  const RepairResult &R = Res.Repair;
  const RepairStats &St = R.Stats;
  if (!Json) {
    std::string Out =
        "failing input: " + renderInputVector(Res.FailingInput) + "\n";
    Out += "suspect lines:";
    for (uint32_t L : R.SuspectLines)
      Out += ' ' + std::to_string(L);
    Out += '\n';
    Out += "prescreen: " + std::to_string(St.LinesScreenedOut) + " of " +
           std::to_string(St.LinesConsidered) + " lines ruled out (" +
           std::to_string(St.PrescreenSatCalls) + " sat calls)\n";
    Out += "candidates: " + std::to_string(R.CandidatesTried) + " tried of " +
           std::to_string(St.CandidatesPlanned) + " planned (" +
           std::to_string(St.TestScreenRejected) + " failed tests, " +
           std::to_string(St.BmcRejected) + " failed verification)\n";
    if (R.Found) {
      Out += "repair: line " + std::to_string(R.Suggestion.Line) + ": " +
             R.Suggestion.Description + "\n";
      Out += "fixed program:\n" + printProgram(*R.Suggestion.FixedProgram);
    } else if (R.Truncated) {
      Out += "repair: NONE within candidate budget (more candidates exist)\n";
    } else {
      Out += "repair: none validated (template space exhausted)\n";
    }
    return Out;
  }
  std::string Out = "{\n  \"input\": \"" +
                    renderInputVector(Res.FailingInput) + "\",\n";
  Out += "  \"found\": ";
  Out += R.Found ? "true" : "false";
  Out += ",\n";
  if (R.Found) {
    Out += "  \"line\": " + std::to_string(R.Suggestion.Line) + ",\n";
    Out += "  \"fix\": ";
    appendJsonString(Out, R.Suggestion.Description);
    Out += ",\n";
  }
  Out += "  \"suspect_lines\": [";
  for (size_t I = 0; I < R.SuspectLines.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(R.SuspectLines[I]);
  Out += "],\n";
  Out += "  \"truncated\": ";
  Out += R.Truncated ? "true" : "false";
  Out += ",\n  \"stats\": {\"lines_considered\": " +
         std::to_string(St.LinesConsidered) +
         ", \"lines_screened_out\": " + std::to_string(St.LinesScreenedOut) +
         ", \"prescreen_sat_calls\": " +
         std::to_string(St.PrescreenSatCalls) +
         ", \"candidates_planned\": " + std::to_string(St.CandidatesPlanned) +
         ", \"candidates_tried\": " + std::to_string(St.CandidatesTried) +
         ", \"sema_rejected\": " + std::to_string(St.SemaRejected) +
         ", \"test_screen_rejected\": " +
         std::to_string(St.TestScreenRejected) +
         ", \"bmc_rejected\": " + std::to_string(St.BmcRejected) +
         ", \"formula_builds\": " + std::to_string(St.FormulaBuilds) + "}";
  if (R.Found) {
    Out += ",\n  \"fixed_program\": ";
    appendJsonString(Out, printProgram(*R.Suggestion.FixedProgram));
  }
  Out += "\n}\n";
  return Out;
}
