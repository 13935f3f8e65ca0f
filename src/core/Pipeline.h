//===- Pipeline.h - End-to-end localization pipeline ------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one driver seam behind every front-end: the `bugassist` CLI, the
/// examples, and the bench harnesses all run source -> parse -> sema ->
/// unroll -> trace formula -> CoMSS enumeration through
/// runLocalizePipeline instead of each wiring the stages by hand.
///
/// The pipeline also owns the two workflow conveniences the paper's
/// Section 6.1 methodology needs around the core algorithm:
///
///  * segregateFailingTests -- judge a test pool against a golden program
///    version and collect the failing inputs with their expected outputs;
///  * renderLocalizationReport / renderLocalizationJson -- the canonical
///    serializations of a LocalizationReport. The CLI prints these
///    verbatim, so a library caller can diff its own report against CLI
///    output byte for byte (the reports are deterministic; solver
///    statistics, which depend on search history, are rendered separately
///    via renderSearchStats).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_PIPELINE_H
#define BUGASSIST_CORE_PIPELINE_H

#include "core/BugAssist.h"
#include "core/ErrorCode.h"
#include "core/Repair.h"
#include "lang/Sema.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bugassist {

/// Everything runLocalizePipeline needs besides the program itself.
struct PipelineRequest {
  std::string Entry = "main";
  UnrollOptions Unroll;
  EncodeOptions Encode; ///< BitWidth is synced from Unroll by the driver
  /// The failing input. When absent, the pipeline finds a counterexample
  /// to the spec by bounded model checking (Section 4.1) -- only possible
  /// for obligation specs, since a golden return is input-specific.
  std::optional<InputVector> Input;
  /// Expected return value for Input: the spec becomes "returns this"
  /// (the wrong-output failures of the TCAS methodology).
  std::optional<int64_t> GoldenReturn;
  /// Check assert/bounds obligations as part of the spec.
  bool CheckObligations = true;
  LocalizeOptions Localize;
  /// Conflict budget for the BMC counterexample search (0 = unlimited).
  uint64_t BmcConflictBudget = 0;
};

enum class PipelineStatus {
  Localized,      ///< Report holds the diagnoses
  CompileError,   ///< parse/sema failed; Message holds the diagnostics
  NoCounterexample, ///< BMC found no failing input within bounds
  InputNotFailing ///< the given input satisfies the spec; nothing to blame
};

struct PipelineResult {
  PipelineStatus Status = PipelineStatus::CompileError;
  /// Structured classification of the outcome (core/ErrorCode.h): Ok for
  /// Localized / NoCounterexample runs that completed, BudgetExhausted
  /// when the report is budget-truncated, else the specific failure code.
  /// Front-ends branch on this instead of matching Message strings.
  ErrorCode Code = ErrorCode::CompileError;
  /// Diagnostics (CompileError) or a human-readable explanation for the
  /// other non-Localized statuses.
  std::string Message;
  /// The input that was localized (the given one, or the BMC-found one).
  InputVector FailingInput;
  /// The spec the failing input violates.
  Spec SpecUsed;
  LocalizationReport Report;
};

/// Runs the full pipeline on an analyzed program (\p Prog must have passed
/// Sema). Never returns CompileError.
PipelineResult runLocalizePipeline(const Program &Prog,
                                   const PipelineRequest &R);

/// Runs the full pipeline from source text (parse + sema included).
PipelineResult runLocalizePipeline(std::string_view Source,
                                   const PipelineRequest &R);

/// The front half of the pipeline, done once: a parsed program with its
/// unroll + encode driver. Serve mode caches these keyed by source text +
/// entry + options (serve/FormulaCache.h) and answers every query on the
/// cached copy. Safe to share across threads: every query-answering entry
/// point below only reads it.
struct PreparedProgram {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<BugAssistDriver> Driver;
};

/// Runs parse -> sema -> unroll -> encode once. \returns nullptr and fills
/// \p Error when the source does not compile (the rendered diagnostics;
/// \p Code, when given, is set to CompileError) or defines no function
/// \p Entry (Code BadRequest). \p Unroll.BitWidth is propagated into the
/// encoder exactly as the one-shot pipeline does.
std::unique_ptr<PreparedProgram> prepareProgram(std::string_view Source,
                                                const std::string &Entry,
                                                const UnrollOptions &Unroll,
                                                const EncodeOptions &Encode,
                                                std::string &Error,
                                                ErrorCode *Code = nullptr);

/// The back half of the pipeline on a prepared program. \p R's Entry,
/// Unroll, and Encode fields MUST equal the prepare-time values (serve
/// guarantees this by keying its cache on them); only the per-query fields
/// (Input, GoldenReturn, CheckObligations, Localize, BmcConflictBudget)
/// vary. Localization runs through localizeFault: on \p Session when
/// given -- a never-solved session over Driver->formula().sharedInstance(),
/// e.g. a clone() of a cached base session, whose engine and per-call
/// conflict budget then stand in for R.Localize's (its budget knobs still
/// apply) -- else on a session built for the query. Reports are canonical,
/// so the output does not depend on which session ran.
PipelineResult runLocalizePipeline(const PreparedProgram &P,
                                   const PipelineRequest &R,
                                   MaxSatSession *Session = nullptr);

/// Everything runRepairPipeline needs besides the prepared program: the
/// localize knobs plus the repair knobs and the failing test set.
struct RepairRequest {
  std::string Entry = "main";
  UnrollOptions Unroll;
  EncodeOptions Encode;
  /// Failing tests (at least one). Inputs[0] drives localization; all of
  /// them screen repair candidates.
  std::vector<InputVector> Inputs;
  /// Expected (golden) return per input, parallel to Inputs. Empty =
  /// obligation spec only.
  std::vector<int64_t> Goldens;
  bool CheckObligations = true;
  LocalizeOptions Localize;
  /// CandidateLines and Localize inside are overwritten by the driver
  /// (lines come from the localization report, Localize from above).
  RepairOptions Repair;
};

struct RepairPipelineResult {
  PipelineStatus Status = PipelineStatus::CompileError;
  /// Ok when the repair search decided (found a fix or exhausted the
  /// template space); BudgetExhausted when either the localization report
  /// or the candidate search was truncated by a budget; else the failure.
  ErrorCode Code = ErrorCode::CompileError;
  std::string Message;
  InputVector FailingInput;
  /// The localization the candidate lines came from (canonical).
  LocalizationReport Report;
  RepairResult Repair;
};

/// Algorithm 2 through the pipeline seam: judges Inputs[0] concretely,
/// then runs repairProgram on P.Driver with no candidate lines, so it
/// localizes Inputs[0] (on \p Session when given -- serve's cloned base)
/// and mutates the report's lines in first-seen diagnosis order, after
/// the line prescreen. R.Localize.Budget's timeout bounds the whole
/// request (see repairProgram). Requirements on \p R's
/// Entry/Unroll/Encode and on \p Session match runLocalizePipeline.
RepairPipelineResult runRepairPipeline(const PreparedProgram &P,
                                       const RepairRequest &R,
                                       MaxSatSession *Session = nullptr);

/// The canonical stdout of a repair run, shared verbatim by `bugassist
/// repair` and serve's `repair` command (deterministic: work counters
/// only, no wall-clock or solver search statistics). Error statuses
/// render empty, as with renderLocalizeOutput.
std::string renderRepairOutput(const RepairPipelineResult &Res, bool Json);

/// The failing subset of a test pool, judged against a golden program
/// version (Section 6.1: run both, keep inputs where the outputs differ).
struct FailingTests {
  std::vector<InputVector> Inputs;
  /// Expected (golden) return value per failing input, parallel to Inputs.
  std::vector<int64_t> Goldens;
  /// Regression witnesses: pool inputs where the faulty version already
  /// agrees with the golden one, with their (identical) return values.
  /// Algorithm 2's candidate screen replays these alongside the failing
  /// tests -- a "fix" that repairs the failures by breaking previously
  /// passing behavior is an imposter and must be rejected.
  std::vector<InputVector> PassingInputs;
  std::vector<int64_t> PassingGoldens;
  /// Size of the pool that was screened.
  size_t PoolSize = 0;
};

/// Runs \p Entry of \p Golden on every pool input and returns the return
/// values. Compute this once when screening many faulty versions against
/// the same pool (the Table 1 benches), then use the GoldenOut overload
/// of segregateFailingTests below.
std::vector<int64_t> goldenOutputs(const Program &Golden,
                                   const std::vector<InputVector> &Pool,
                                   const std::string &Entry,
                                   const ExecOptions &EO);

/// Screens \p Pool: runs \p Entry of both programs on every input and
/// collects up to \p MaxTests inputs where the faulty return differs from
/// the golden one, plus up to \p MaxPassing agreeing inputs as regression
/// witnesses for the repair candidate screen.
FailingTests segregateFailingTests(const Program &Golden,
                                   const Program &Faulty,
                                   const std::vector<InputVector> &Pool,
                                   const std::string &Entry,
                                   const ExecOptions &EO,
                                   size_t MaxTests = SIZE_MAX,
                                   size_t MaxPassing = 0);

/// Same screening against precomputed golden outputs (parallel to
/// \p Pool), saving the golden re-interpretation per faulty version.
FailingTests segregateFailingTests(const std::vector<int64_t> &GoldenOut,
                                   const Program &Faulty,
                                   const std::vector<InputVector> &Pool,
                                   const std::string &Entry,
                                   const ExecOptions &EO,
                                   size_t MaxTests = SIZE_MAX,
                                   size_t MaxPassing = 0);

/// Renders an input vector as the CLI's `--input` syntax: scalars
/// comma-separated, arrays bracketed (`3,[1,2,4],0`).
std::string renderInputVector(const InputVector &In);

/// Parses the `--input` syntax back into an InputVector. \returns
/// std::nullopt and fills \p Error on malformed input.
std::optional<InputVector> parseInputVector(std::string_view Text,
                                            std::string &Error);

/// Parses a hard-lines spec -- comma-separated line numbers or A-B ranges
/// (`3,10-12`) -- into \p Out, as the CLI's `--hard-lines` and the serve
/// protocol's `hard_lines` field use it. Line numbers are capped at 1e6:
/// far above any real source file, low enough that a typo'd range cannot
/// hang the caller or wrap uint32_t. \returns false on malformed specs.
bool parseHardLinesSpec(std::string_view Spec, std::set<uint32_t> &Out);

/// Canonical text form of a report: one line per diagnosis, the suspect
/// union, per-line hit counts, and the termination reason. Deterministic
/// (no solver statistics).
std::string renderLocalizationReport(const LocalizationReport &R);

/// Canonical JSON form of the same data.
std::string renderLocalizationJson(const LocalizationReport &R);

/// Solver statistics block (conflicts, propagations, simplification...).
/// Depends on search history (a cloned session searches differently from
/// a fresh one); kept out of the canonical report so that byte-for-byte
/// comparisons stay meaningful.
std::string renderSearchStats(const LocalizationReport &R);

/// The canonical stdout of a localize run: exactly what `bugassist
/// localize` prints for \p Res (the CLI and serve mode both emit this
/// verbatim, which is what makes their outputs byte-comparable).
/// Localized renders the failing input plus the text or JSON report;
/// NoCounterexample renders the explanatory message; the error statuses
/// (CompileError, InputNotFailing) render empty -- their messages travel
/// on stderr (CLI) or in the response header (serve).
std::string renderLocalizeOutput(const PipelineResult &Res, bool Json);

} // namespace bugassist

#endif // BUGASSIST_CORE_PIPELINE_H
