//===- bench_repair_offbyone.cpp - Section 6.3, measured -----------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The strncat off-by-one study: find the violation by BMC, localize with
// the library trusted (its constraints hard, Section 6.3), and synthesize
// the kappa +/- 1 repair of Algorithm 2, timing every stage. The repair
// runs twice on one prepared driver -- through the pipeline seam with the
// line prescreen, and through repairProgram with the prescreen off --
// and the candidate-validation funnels of both twins are merged into
// BENCH_solvers.json next to the solver workloads, so the perf tracker
// sees how many candidates each twin planned, screened, and verified.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/Repair.h"
#include "programs/SmallDemos.h"
#include "serve/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace bugassist;

namespace {

/// Re-serializes a parsed JSON tree compactly. Numbers keep their raw
/// token (Json.h preserves it), so merged entries round-trip exactly.
std::string renderJson(const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Bool:
    return V.BoolVal ? "true" : "false";
  case JsonValue::Kind::Number:
    return V.Text;
  case JsonValue::Kind::String:
    return "\"" + jsonEscape(V.Text) + "\"";
  case JsonValue::Kind::Array: {
    std::string Out = "[";
    for (size_t I = 0; I < V.Elements.size(); ++I)
      Out += (I ? ", " : "") + renderJson(V.Elements[I]);
    return Out + "]";
  }
  case JsonValue::Kind::Object: {
    std::string Out = "{";
    for (size_t I = 0; I < V.Members.size(); ++I)
      Out += std::string(I ? ", " : "") + "\"" +
             jsonEscape(V.Members[I].first) +
             "\": " + renderJson(V.Members[I].second);
    return Out + "}";
  }
  }
  return "null";
}

/// One twin's workload entry: the wall time plus the Algorithm 2
/// candidate-validation funnel.
std::string workloadEntry(const char *Name, double WallSeconds,
                          const RepairResult &R) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"name\": \"%s\", \"wall_s\": %.6f, \"found\": %s, "
      "\"lines_considered\": %llu, \"lines_screened_out\": %llu, "
      "\"prescreen_sat_calls\": %llu, \"candidates_planned\": %llu, "
      "\"candidates_tried\": %llu, \"sema_rejected\": %llu, "
      "\"test_screen_rejected\": %llu, \"bmc_rejected\": %llu, "
      "\"formula_builds\": %llu}",
      Name, WallSeconds, R.Found ? "true" : "false",
      static_cast<unsigned long long>(R.Stats.LinesConsidered),
      static_cast<unsigned long long>(R.Stats.LinesScreenedOut),
      static_cast<unsigned long long>(R.Stats.PrescreenSatCalls),
      static_cast<unsigned long long>(R.Stats.CandidatesPlanned),
      static_cast<unsigned long long>(R.Stats.CandidatesTried),
      static_cast<unsigned long long>(R.Stats.SemaRejected),
      static_cast<unsigned long long>(R.Stats.TestScreenRejected),
      static_cast<unsigned long long>(R.Stats.BmcRejected),
      static_cast<unsigned long long>(R.Stats.FormulaBuilds));
  return Buf;
}

/// Read-merge-write: keeps every existing workload except prior
/// repair_offbyone_* entries, appends the fresh twins, leaves the other
/// top-level keys (bench name, hardware_concurrency) untouched.
void mergeIntoJson(const char *Path, const std::vector<std::string> &Fresh) {
  std::string HeadKeys;
  std::vector<std::string> Kept;
  std::ifstream In(Path);
  if (In) {
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Error;
    auto Root = parseJson(SS.str(), Error);
    if (Root && Root->isObject()) {
      for (const auto &KV : Root->Members) {
        if (KV.first == "workloads") {
          for (const JsonValue &W : KV.second.Elements) {
            const JsonValue *Name = W.find("name");
            if (Name &&
                Name->Text.rfind("repair_offbyone", 0) == 0)
              continue; // replaced by this run
            Kept.push_back(renderJson(W));
          }
          continue;
        }
        HeadKeys += "  \"" + jsonEscape(KV.first) +
                    "\": " + renderJson(KV.second) + ",\n";
      }
    }
  }
  if (HeadKeys.empty())
    HeadKeys = "  \"bench\": \"bench_repair_offbyone\",\n";

  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::printf("cannot open %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n%s  \"workloads\": [\n", HeadKeys.c_str());
  for (size_t I = 0; I < Kept.size(); ++I)
    std::fprintf(F, "    %s,\n", Kept[I].c_str());
  for (size_t I = 0; I < Fresh.size(); ++I)
    std::fprintf(F, "    %s%s\n", Fresh[I].c_str(),
                 I + 1 < Fresh.size() ? "," : "");
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("merged %zu workload(s) into %s (%zu kept)\n", Fresh.size(),
              Path, Kept.size());
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = "BENCH_solvers.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      JsonPath = argv[++I];
  }

  UnrollOptions UO;
  UO.BitWidth = 16;
  UO.MaxLoopUnwind = 10;
  UO.TrustedFunctions.insert(program2LibraryFunction());
  UO.HardLines = program2HardLines();
  EncodeOptions EO;
  EO.BitWidth = UO.BitWidth;

  // Encode once through the pipeline seam -- the same prepared driver
  // serves BMC, localization, the prescreen, and the pooled repair twin.
  Timer T;
  std::string Error;
  auto P = prepareProgram(program2Source(), "main", UO, EO, Error);
  if (!P) {
    std::printf("%s", Error.c_str());
    return 1;
  }
  std::printf("encode: %.3fs (%d vars, %zu clauses)\n", T.seconds(),
              P->Driver->formula().encoded().Formula.numVars(),
              P->Driver->formula().encoded().Formula.numClauses());

  T.reset();
  auto Cex = P->Driver->findCounterexample(Spec{});
  std::printf("BMC bounds-violation search: %.3fs -> %s\n", T.seconds(),
              Cex ? "violation found" : "none (unexpected)");
  if (!Cex)
    return 1;

  // Pooled twin: localization and repair through runRepairPipeline, the
  // exact seam the CLI `repair` subcommand and the serve daemon drive.
  RepairRequest R;
  R.Unroll = UO;
  R.Encode = EO;
  R.Inputs = {*Cex};
  R.Repair.OperatorSwap = false; // the study tries the two one-off constants
  T.reset();
  RepairPipelineResult Pooled = runRepairPipeline(*P, R);
  double PooledWall = T.seconds();
  if (Pooled.Status != PipelineStatus::Localized) {
    std::printf("localization failed: %s\n", Pooled.Message.c_str());
    return 1;
  }
  std::printf("pooled localize+repair: %.3fs, suspect lines:", PooledWall);
  for (uint32_t L : Pooled.Report.AllLines)
    std::printf(" %u", L);
  bool CallSite = std::find(Pooled.Report.AllLines.begin(),
                            Pooled.Report.AllLines.end(),
                            program2BugLine()) != Pooled.Report.AllLines.end();
  std::printf("  (call site line %u %s)\n", program2BugLine(),
              CallSite ? "blamed, as in the paper" : "MISSED");

  // Unscreened twin: the same repair with the line prescreen off; the
  // funnel shows what the prescreen saves.
  RepairOptions RO;
  RO.OperatorSwap = false;
  RO.PrescreenLines = false;
  T.reset();
  RepairResult Unscreened =
      repairProgram(*P->Prog, *P->Driver, "main", {*Cex}, Spec{}, nullptr, RO);
  double UnscreenedWall = T.seconds();

  for (const auto &Twin :
       {std::make_pair("pooled", &Pooled.Repair),
        std::make_pair("unscreened", &Unscreened)}) {
    const RepairResult &Fix = *Twin.second;
    std::printf("%s repair: %zu tried of %zu planned (%zu test-rejected, "
                "%zu bmc-rejected, %zu formula builds) -> %s\n", Twin.first,
                Fix.CandidatesTried, Fix.Stats.CandidatesPlanned,
                Fix.Stats.TestScreenRejected, Fix.Stats.BmcRejected,
                Fix.Stats.FormulaBuilds,
                Fix.Found ? Fix.Suggestion.Description.c_str()
                          : "no fix validated");
  }
  if (Pooled.Repair.Found)
    std::printf("paper's outcome: SIZE -> SIZE-1 validated; here: line %u, "
                "%s\n",
                Pooled.Repair.Suggestion.Line,
                Pooled.Repair.Suggestion.Description.c_str());
  bool Agree =
      Pooled.Repair.Found == Unscreened.Found &&
      (!Pooled.Repair.Found ||
       (Pooled.Repair.Suggestion.Line == Unscreened.Suggestion.Line &&
        Pooled.Repair.Suggestion.Description ==
            Unscreened.Suggestion.Description));
  if (!Agree)
    std::printf("TWIN MISMATCH: pooled and unscreened disagree\n");

  mergeIntoJson(JsonPath,
                {workloadEntry("repair_offbyone_pooled", PooledWall,
                               Pooled.Repair),
                 workloadEntry("repair_offbyone_unscreened", UnscreenedWall,
                               Unscreened)});

  return Pooled.Repair.Found && CallSite && Agree ? 0 : 1;
}
