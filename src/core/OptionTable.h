//===- OptionTable.h - One option schema for the CLI and serve --*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every knob of the `bugassist` commands, declared once: its CLI flag, its
/// serve request key, its value kind and bounds, the commands that take
/// it, and where its value lands in the option structs the commands run
/// on. The CLI's argv loop, serve's request decoder and `--help` are all
/// driven by this table, so the two surfaces accept and reject exactly the
/// same values (docs/CLI.md and docs/SERVE.md document the same rows).
///
/// The paper's own knobs are few -- the unwinding bound eta, the word
/// width, and the trusted harness lines pinned into [[test]] -- the rest
/// are search, repair, fuzz and service controls layered on top.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_OPTIONTABLE_H
#define BUGASSIST_CORE_OPTIONTABLE_H

#include "core/Pipeline.h"
#include "mutate/FuzzSweep.h"
#include "serve/LocalizeServer.h"

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace bugassist {

struct JsonValue;

/// The commands whose options the table declares. Serve requests use the
/// first four (a request's `cmd`).
enum class Command : uint8_t { Localize, Repair, MaxSat, Sat, Fuzz, Serve };

/// The command's name as typed on the command line or in a request's `cmd`.
const char *commandName(Command C);

/// Parses a serve request's `cmd`: localize, repair, maxsat or sat.
bool parseServedCommand(std::string_view Name, Command &Out);

/// Everything an option can set: the option structs the commands already
/// run on, plus the few command-local switches. One instance per parsed
/// command line or serve request; each command reads only its own parts.
struct CommandOptions {
  explicit CommandOptions(Command Cmd) : Cmd(Cmd) {}

  Command Cmd;
  /// localize, repair, fuzz: the program's entry, encoding and tests, and
  /// the localize and repair knobs. localize takes its input and golden
  /// from the back of Inputs/Goldens (localizeRequest). The solver knobs
  /// in Query.Localize (Preprocess, Budget) also drive maxsat and sat.
  RepairRequest Query;
  FuzzOptions Fuzz;
  size_t FuzzPool = 0; ///< 0 = the subject's default pool size
  std::vector<std::string> FuzzClasses; ///< one `a,b,..` list per flag
  bool FuzzProgress = false;
  ServeOptions Serve;
  std::string ServeBatch;  ///< empty = daemon on stdin
  std::string ServeFaults; ///< fault-injection campaign spec
  std::string Engine = "auto";
  bool Json = false;
  bool Stats = false;
  bool Model = true;

  /// The localize pipeline request the options describe.
  PipelineRequest localizeRequest() const;
};

enum class OptionKind : uint8_t {
  Switch,    ///< CLI: a bare flag (`--no-X` sets false); serve: a boolean
  Int,       ///< an integer in [Min, Max]
  Seconds,   ///< a positive number of seconds, at most 1e9
  Text,      ///< a string, one of Choices when those are given
  Input,     ///< the `--input` syntax, `V,[A,B],..`
  HardLines, ///< the `--hard-lines` syntax, `3,10-12`
};

/// One parsed value; the row's kind says which member is meaningful.
struct OptionValue {
  bool Bool = false;
  int64_t Int = 0;
  double Real = 0;
  std::string Text;
  InputVector Input;
  std::set<uint32_t> Lines;
};

struct OptionRow {
  const char *Flag; ///< CLI spelling
  const char *Key;  ///< serve request key, or nullptr when CLI-only
  OptionKind Kind;
  unsigned Commands; ///< bit I set: takes the command with value I
  int64_t Min;       ///< Int bounds
  int64_t Max;
  const char *Meta; ///< value placeholder in --help (nullptr for switches)
  const char *Help;
  void (*Set)(CommandOptions &, const OptionValue &);
  /// Serve takes an array of values; the CLI flag repeats.
  bool Repeated = false;
  /// Text: the accepted values (any string when empty).
  std::vector<std::string_view> Choices = {};

  bool takes(Command C) const;
};

/// All rows, in --help order.
const std::vector<OptionRow> &optionTable();

/// The row for CLI flag \p Flag under \p C, or nullptr.
const OptionRow *findFlag(Command C, std::string_view Flag);

/// The one integer syntax of both surfaces: strtoll's (leading blanks, an
/// optional sign, decimal digits), consumed to the end, without overflow,
/// within [Min, Max].
bool parseBoundedInt(std::string_view Text, int64_t Min, int64_t Max,
                     int64_t &Out);

/// Parses the options of O.Cmd in argv (everything after the command's
/// positional argument) into \p O. \returns false with \p Error set --
/// e.g. `bad --unwind value 'x'` -- at the first unknown flag or bad value.
bool parseCommandLine(int Argc, char *const *Argv, CommandOptions &O,
                      std::string &Error);

/// Applies one member of a serve request of O.Cmd to \p O. \returns false
/// with \p Error set -- e.g. `field 'unwind' must be an integer in [1,
/// 1000000]` -- on an unknown key or a bad value.
bool applyRequestField(const std::string &Key, const JsonValue &Value,
                       CommandOptions &O, std::string &Error);

/// The `bugassist --help` text.
std::string renderUsage(const char *Argv0);

} // namespace bugassist

#endif // BUGASSIST_CORE_OPTIONTABLE_H
