//===- Command.h - One runner for the served commands -----------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place `localize`, `repair`, `maxsat` and `sat` run. The CLI and
/// serve decode their options through the option table
/// (core/OptionTable.h) and hand them to runCommand, which starts the
/// budget clock, resolves the program, solves, classifies the outcome and
/// renders the canonical body. What a surface changes goes through
/// CommandEnv: serve resolves programs through its FormulaCache. Every
/// solver of a command answers to the one QueryBudget, whose deadline and
/// cancel flag also bound serve's watchdog and drain.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_COMMAND_H
#define BUGASSIST_CORE_COMMAND_H

#include "core/OptionTable.h"

#include <functional>
#include <memory>
#include <string>

namespace bugassist {

/// A mini-C program ready for queries, or why it is not: Code
/// CompileError (Error holds the diagnostics) or BadRequest (no entry).
struct ResolvedProgram {
  const PreparedProgram *Prepared = nullptr;
  ErrorCode Code = ErrorCode::Ok;
  std::string Error;
  std::unique_ptr<PreparedProgram> Owned; ///< keeps a fresh Prepared alive
  /// A never-solved session over Prepared's shared instance, or nullptr:
  /// the pipeline then builds its own.
  std::unique_ptr<MaxSatSession> Session;
};

/// The default is the one-shot CLI's: a fresh program and session.
struct CommandEnv {
  /// Resolves O.Source for localize and repair under the command's started
  /// \p Budget. Unset: prepareProgram and no session, search-identical to
  /// runLocalizePipeline on source text.
  std::function<ResolvedProgram(const CommandOptions &O,
                                const QueryBudget &Budget)>
      Resolve;
  /// Set: maxsat and sat bodies carry the DIMACS `c` comment lines, which
  /// name the input by this label.
  const char *CommentLabel = nullptr;
};

struct CommandResult {
  /// Ok or BudgetExhausted when the command answered; otherwise the
  /// failure, with Body empty and Error set.
  ErrorCode Code = ErrorCode::Ok;
  std::string Body; ///< the canonical stdout, as the CLI prints it
  std::string Error;
  /// SatCalls and Search count a search: false on failures and when
  /// localize found no failing input.
  bool Searched = false;
  uint64_t SatCalls = 0;
  SolverStats Search;
  /// localize only: the anytime upper-bound probe's share of
  /// Search.Conflicts, and under O.Stats the trace formula's clauses the
  /// localization formula loads and those outside the spec's cone it
  /// leaves out (EncodedProgram::OutsideCone).
  uint64_t ProbeConflicts = 0;
  size_t ConeClauses = 0;
  size_t OutsideClauses = 0;

  bool failed() const {
    return Code != ErrorCode::Ok && Code != ErrorCode::BudgetExhausted;
  }
  static CommandResult failure(ErrorCode Code, std::string Message) {
    CommandResult R;
    R.Code = Code;
    R.Error = std::move(Message);
    return R;
  }
};

/// Runs O.Cmd -- localize, repair, maxsat or sat -- on O.Source. The query
/// budget counts from the first startClock() of O's budget, or from here.
CommandResult runCommand(const CommandOptions &O,
                         const CommandEnv &Env = CommandEnv());

} // namespace bugassist

#endif // BUGASSIST_CORE_COMMAND_H
