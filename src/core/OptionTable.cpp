//===- OptionTable.cpp - One option schema for the CLI and serve ----------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/OptionTable.h"

#include "serve/Json.h"

#include <cerrno>
#include <cstdlib>

using namespace bugassist;

namespace {

constexpr unsigned commandBit(Command C) {
  return 1u << static_cast<unsigned>(C);
}

constexpr unsigned InLocalize = commandBit(Command::Localize);
constexpr unsigned InRepair = commandBit(Command::Repair);
constexpr unsigned InMaxSat = commandBit(Command::MaxSat);
constexpr unsigned InSat = commandBit(Command::Sat);
constexpr unsigned InFuzz = commandBit(Command::Fuzz);
constexpr unsigned InServe = commandBit(Command::Serve);
/// The commands that take a query budget and the solver switches.
constexpr unsigned Solving = InLocalize | InRepair | InMaxSat | InSat;
/// The commands that unroll and encode a mini-C program.
constexpr unsigned Encoding = InLocalize | InRepair | InFuzz;
constexpr Command AllCommands[] = {Command::Localize, Command::Repair,
                                   Command::MaxSat,   Command::Sat,
                                   Command::Fuzz,     Command::Serve};

using Setter = void (*)(CommandOptions &, const OptionValue &);

/// A setter storing the parsed value \c X into the options \c O. Values
/// are within their row's bounds, so narrowing assignments are exact.
#define SET(Statement)                                                         \
  [](CommandOptions &O, const OptionValue &X) { Statement; }

OptionRow row(const char *Flag, const char *Key, OptionKind Kind,
              unsigned Commands, const char *Meta, const char *Help,
              Setter Set) {
  return {Flag, Key, Kind, Commands, 0, 0, Meta, Help, Set, false};
}

OptionRow intRow(const char *Flag, const char *Key, unsigned Commands,
                 int64_t Min, int64_t Max, const char *Help, Setter Set,
                 const char *Meta = "N") {
  return {Flag, Key, OptionKind::Int, Commands, Min, Max, Meta, Help, Set,
          false};
}

OptionRow switchRow(const char *Flag, const char *Key, unsigned Commands,
                    const char *Help, Setter Set) {
  return row(Flag, Key, OptionKind::Switch, Commands, nullptr, Help, Set);
}

OptionRow repeated(OptionRow Row) {
  Row.Repeated = true;
  return Row;
}

// Rows are grouped by the commands that take them; --help prints a group
// header wherever the set changes. Fuzz keeps its own copies of a few
// localize/repair knobs (FuzzOptions), so those setters pick by command.
const std::vector<OptionRow> Table = {
    switchRow("--no-preprocess", nullptr, Solving,
              "disable clause-database simplification",
              SET(O.Query.Localize.Preprocess = X.Bool)),
    row("--timeout", "timeout", OptionKind::Seconds, Solving, "SECONDS",
        "wall-clock deadline (fractional ok)",
        SET(O.Query.Localize.Budget.TimeoutSeconds = X.Real)),
    intRow("--max-conflicts", "max_conflicts", Solving, 1, INT64_MAX,
           "total conflict cap",
           SET(O.Query.Localize.Budget.MaxConflicts = X.Int)),
    // Capped so the MiB-to-bytes shift cannot overflow uint64_t.
    intRow("--max-memory-mb", "max_memory_mb", Solving, 1, 1ll << 30,
           "solver memory cap (arena + per-variable state), in MiB",
           SET(O.Query.Localize.Budget.MaxMemoryMb = X.Int)),

    row("--entry", "entry", OptionKind::Text, Encoding, "NAME",
        "entry function (default: main)", SET(O.Query.Entry = X.Text)),
    // Capped well below INT_MAX: the unrolled trace grows linearly in the
    // bound, so anything bigger is a typo, not a request.
    intRow("--unwind", "unwind", Encoding, 1, 1000000,
           "loop unwinding bound eta (default: 16)",
           SET(O.Query.Unroll.MaxLoopUnwind = X.Int)),
    // The widths BitBlaster supports (it asserts 2 <= W <= 62).
    intRow("--bitwidth", "bitwidth", Encoding, 2, 62,
           "word width in bits, 2-62 (default: 16)",
           SET(O.Query.Unroll.BitWidth = X.Int), "W"),
    switchRow("--no-bounds", "bounds", Encoding,
              "do not encode array-bounds obligations",
              SET(O.Query.Unroll.CheckArrayBounds = X.Bool)),
    row("--hard-lines", "hard_lines", OptionKind::HardLines, Encoding, "SPEC",
        "never-blamed (test harness) lines, e.g. 3,10-12",
        SET(O.Query.Unroll.HardLines.insert(X.Lines.begin(), X.Lines.end()))),
    intRow("--max-diagnoses", "max_diagnoses", Encoding, 1, INT64_MAX,
           "CoMSS cap (default: 16; fuzz: 8)",
           SET((O.Cmd == Command::Fuzz ? O.Fuzz.MaxDiagnoses
                                       : O.Query.Localize.MaxDiagnoses) =
                   X.Int)),

    switchRow("--no-obligations", "check_obligations", InLocalize | InRepair,
              "ignore assert/bounds obligations",
              SET(O.Query.CheckObligations = X.Bool)),
    switchRow("--weighted", "weighted", InLocalize | InRepair,
              "weighted linear-search MaxSAT engine",
              SET(O.Query.Localize.Weighted = X.Bool)),
    switchRow("--json", "json", InLocalize | InRepair,
              "JSON report instead of text", SET(O.Json = X.Bool)),

    row("--input", "input", OptionKind::Input, InLocalize, "\"V,[A,B],..\"",
        "failing input; omitted: find one by BMC",
        SET(O.Query.Inputs.push_back(X.Input))),
    intRow("--golden", "golden", InLocalize, INT64_MIN, INT64_MAX,
           "expected return value for --input",
           SET(O.Query.Goldens.push_back(X.Int))),

    switchRow("--stats", nullptr, InLocalize | InMaxSat | InSat,
              "append solver statistics (nondeterministic)",
              SET(O.Stats = X.Bool)),

    repeated(row("--input", "inputs", OptionKind::Input, InRepair,
                 "\"V,[A,B],..\"",
                 "test input, repeatable: the first must fail and\n"
                 "drives localization, all screen candidates",
                 SET(O.Query.Inputs.push_back(X.Input)))),
    repeated(intRow("--golden", "goldens", InRepair, INT64_MIN, INT64_MAX,
                    "expected return of the matching --input (repeatable)",
                    SET(O.Query.Goldens.push_back(X.Int)))),
    switchRow("--no-off-by-one", "off_by_one", InRepair,
              "skip constant +/-1 mutations",
              SET(O.Query.Repair.OffByOne = X.Bool)),
    switchRow("--no-op-swap", "op_swap", InRepair,
              "skip near-miss operator swaps",
              SET(O.Query.Repair.OperatorSwap = X.Bool)),
    switchRow("--no-prescreen", "prescreen", InRepair,
              "skip the pooled per-line SAT prescreen",
              SET(O.Query.Repair.PrescreenLines = X.Bool)),

    intRow("--max-candidates", "max_candidates", InRepair | InFuzz, 1,
           INT64_MAX, "candidate mutants to try (default: 256; fuzz: 64)",
           SET((O.Cmd == Command::Fuzz ? O.Fuzz.RepairMaxCandidates
                                       : O.Query.Repair.MaxCandidates) =
                   X.Int)),
    intRow("--verify-budget", "verify_budget", InRepair | InFuzz, 0,
           INT64_MAX, "conflict cap per BMC re-verification (default: 200000)",
           SET((O.Cmd == Command::Fuzz ? O.Fuzz.RepairVerifyBudget
                                       : O.Query.Repair.VerifyBudget) =
                   X.Int)),

    intRow("--seed", nullptr, InFuzz, 0, INT64_MAX,
           "mutation stream seed (default: 1)", SET(O.Fuzz.Seed = X.Int)),
    intRow("--count", nullptr, InFuzz, 1, 100000,
           "mutants to generate (default: 100)", SET(O.Fuzz.Count = X.Int)),
    intRow("--pool", nullptr, InFuzz, 1, 1000000,
           "test-pool size (default: 400 tcas, 256 file)",
           SET(O.FuzzPool = X.Int)),
    row("--classes", nullptr, OptionKind::Text, InFuzz, "a,b,..",
        "restrict fault classes (op,const,assign,code,\n"
        "addcode,init,index,branch)",
        SET(O.FuzzClasses.push_back(X.Text))),
    intRow("--max-tests", nullptr, InFuzz, 1, INT64_MAX,
           "failing tests kept per mutant (default: 4)",
           SET(O.Fuzz.MaxFailingTests = X.Int)),
    switchRow("--no-repair", nullptr, InFuzz,
              "skip Algorithm 2 repair on hits",
              SET(O.Fuzz.TryRepair = X.Bool)),
    switchRow("--progress", nullptr, InFuzz, "progress counter on stderr",
              SET(O.FuzzProgress = X.Bool)),

    switchRow("--no-model", "model", InMaxSat | InSat, "suppress the v line",
              SET(O.Model = X.Bool)),

    intRow("--threads", nullptr, InServe, 1, 64,
           "worker pool width (default: 1)",
           SET(O.Serve.Threads = X.Int)),
    row("--batch", nullptr, OptionKind::Text, InServe, "FILE",
        "answer the JSON-lines requests in FILE and exit\n"
        "(default: a daemon on stdin)",
        SET(O.ServeBatch = X.Text)),
    intRow("--max-retries", nullptr, InServe, 0, 16,
           "re-runs of a request whose worker crashed (default: 2)",
           SET(O.Serve.MaxRetries = X.Int)),
    row("--watchdog", nullptr, OptionKind::Seconds, InServe, "SECONDS",
        "interrupt any request running longer than this",
        SET(O.Serve.WatchdogSeconds = X.Real)),
    row("--faults", nullptr, OptionKind::Text, InServe, "SPEC",
        "arm a test-only fault-injection campaign\n"
        "(or BUGASSIST_FAULTS)",
        SET(O.ServeFaults = X.Text)),
};

#undef SET

bool parseSeconds(std::string_view Text, double &Out) {
  // A sign is never part of a deadline; strtod would also take "+5".
  if (Text.empty() || Text[0] == '-' || Text[0] == '+')
    return false;
  std::string S(Text);
  char *End = nullptr;
  errno = 0;
  double D = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || errno == ERANGE || !(D > 0) ||
      D > 1e9) // anything bigger is a typo, not a deadline
    return false;
  Out = D;
  return true;
}

/// Parses the textual form of a non-switch value. \p Why receives the
/// --input syntax error.
bool parseValue(const OptionRow &Row, std::string_view Text, OptionValue &Out,
                std::string &Why) {
  switch (Row.Kind) {
  case OptionKind::Switch:
    return false;
  case OptionKind::Int:
    return parseBoundedInt(Text, Row.Min, Row.Max, Out.Int);
  case OptionKind::Seconds:
    return parseSeconds(Text, Out.Real);
  case OptionKind::Text:
    Out.Text = Text;
    return true;
  case OptionKind::Input: {
    auto In = parseInputVector(Text, Why);
    if (In)
      Out.Input = std::move(*In);
    return In.has_value();
  }
  case OptionKind::HardLines:
    return parseHardLinesSpec(Text, Out.Lines);
  }
  return false;
}

/// The serve diagnostic for a bad value (or a value of the wrong JSON type)
/// of \p Row's kind.
std::string jsonError(const OptionRow &Row, const JsonValue &J,
                      const std::string &Why) {
  std::string Must = std::string("field '") + Row.Key + "' must be ";
  switch (Row.Kind) {
  case OptionKind::Switch:
    return Must + "a boolean";
  case OptionKind::Int:
    return Must + "an integer in [" + std::to_string(Row.Min) + ", " +
           std::to_string(Row.Max) + "]";
  case OptionKind::Seconds:
    return Must + "a positive number of seconds";
  default:
    break;
  }
  // Text takes any string, so a string value got here through the
  // --input or --hard-lines syntax.
  if (!J.isString())
    return Must + "a string";
  if (Row.Kind == OptionKind::Input)
    return std::string("bad '") + Row.Key +
           (Row.Repeated ? "' entry: " : "': ") + Why;
  return std::string("bad '") + Row.Key + "' spec '" + J.Text + "'";
}

bool applyJsonValue(const OptionRow &Row, const JsonValue &J,
                    CommandOptions &O, std::string &Error) {
  OptionValue X;
  std::string Why;
  bool Ok;
  switch (Row.Kind) {
  case OptionKind::Switch:
    Ok = J.isBool();
    X.Bool = J.BoolVal;
    break;
  case OptionKind::Int:
  case OptionKind::Seconds:
    // A number's raw token goes through the CLI's text parsers.
    Ok = J.isNumber() && parseValue(Row, J.Text, X, Why);
    break;
  default:
    Ok = J.isString() && parseValue(Row, J.Text, X, Why);
    break;
  }
  if (!Ok) {
    Error = jsonError(Row, J, Why);
    return false;
  }
  Row.Set(O, X);
  return true;
}

const OptionRow *find(Command C, std::string_view Name,
                      const char *OptionRow::*Field) {
  for (const OptionRow &Row : Table)
    if (Row.takes(C) && Row.*Field && Name == Row.*Field)
      return &Row;
  return nullptr;
}

} // namespace

bool OptionRow::takes(Command C) const { return Commands & commandBit(C); }

const char *bugassist::commandName(Command C) {
  switch (C) {
  case Command::Localize: return "localize";
  case Command::Repair:   return "repair";
  case Command::MaxSat:   return "maxsat";
  case Command::Sat:      return "sat";
  case Command::Fuzz:     return "fuzz";
  case Command::Serve:    return "serve";
  }
  return "unknown";
}

bool bugassist::parseServedCommand(std::string_view Name, Command &Out) {
  for (Command C : {Command::Localize, Command::Repair, Command::MaxSat,
                    Command::Sat})
    if (Name == commandName(C)) {
      Out = C;
      return true;
    }
  return false;
}

PipelineRequest CommandOptions::localizeRequest() const {
  PipelineRequest R;
  R.Entry = Query.Entry;
  R.Unroll = Query.Unroll;
  R.Encode = Query.Encode;
  R.CheckObligations = Query.CheckObligations;
  R.Localize = Query.Localize;
  if (!Query.Inputs.empty())
    R.Input = Query.Inputs.back();
  if (!Query.Goldens.empty())
    R.GoldenReturn = Query.Goldens.back();
  return R;
}

const std::vector<OptionRow> &bugassist::optionTable() { return Table; }

const OptionRow *bugassist::findFlag(Command C, std::string_view Flag) {
  return find(C, Flag, &OptionRow::Flag);
}

bool bugassist::parseBoundedInt(std::string_view Text, int64_t Min,
                                int64_t Max, int64_t &Out) {
  std::string S(Text);
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size() || errno == ERANGE || N < Min || N > Max)
    return false;
  Out = N;
  return true;
}

bool bugassist::parseCommandLine(int Argc, char *const *Argv,
                                 CommandOptions &O, std::string &Error) {
  for (int I = 0; I < Argc; ++I) {
    // `--flag value` or `--flag=value`; switches take no value.
    std::string_view Arg = Argv[I];
    size_t Eq = Arg.find('=');
    const OptionRow *Row = findFlag(O.Cmd, Arg.substr(0, Eq));
    if (!Row || (Row->Kind == OptionKind::Switch && Eq != Arg.npos)) {
      Error = std::string("unknown ") + commandName(O.Cmd) + " option '" +
              Argv[I] + "'";
      return false;
    }
    OptionValue X;
    if (Row->Kind == OptionKind::Switch) {
      X.Bool = std::string_view(Row->Flag).substr(0, 5) != "--no-";
    } else {
      std::string Text;
      if (Eq != Arg.npos)
        Text = Arg.substr(Eq + 1);
      else if (I + 1 < Argc)
        Text = Argv[++I];
      else {
        Error = std::string("missing value for ") + Row->Flag;
        return false;
      }
      std::string Why;
      if (!parseValue(*Row, Text, X, Why)) {
        Error = Row->Kind == OptionKind::Input
                    ? "bad --input: " + Why
                    : std::string("bad ") + Row->Flag +
                          (Row->Kind == OptionKind::HardLines ? " spec '"
                                                              : " value '") +
                          Text + "'";
        return false;
      }
    }
    Row->Set(O, X);
  }
  return true;
}

bool bugassist::applyRequestField(const std::string &Key,
                                  const JsonValue &Value, CommandOptions &O,
                                  std::string &Error) {
  const OptionRow *Row = find(O.Cmd, Key, &OptionRow::Key);
  if (!Row) {
    // Strict by design: an unknown (or wrong-command) field is a typo the
    // user wants to hear about, not silently-ignored noise.
    Error = "unknown field '" + Key + "' for cmd \"" + commandName(O.Cmd) +
            "\"";
    return false;
  }
  if (!Row->Repeated)
    return applyJsonValue(*Row, Value, O, Error);
  if (Value.K != JsonValue::Kind::Array) {
    Error = "field '" + Key + "' must be an array of " +
            (Row->Kind == OptionKind::Input ? "input strings" : "integers");
    return false;
  }
  for (const JsonValue &E : Value.Elements)
    if (!applyJsonValue(*Row, E, O, Error))
      return false;
  return true;
}

std::string bugassist::renderUsage(const char *Argv0) {
  static const char *const Commands[][2] = {
      {"localize <prog.ba> [options]", "fault-localize a mini-C program"},
      {"repair <prog.ba> [options]", "localize, then suggest a validated fix"},
      {"fuzz <tcas|prog.ba> [options]",
       "differential mutant sweep: scorecard JSON on\n"
       "stdout, exit 1 on any report mismatch"},
      {"maxsat <file.wcnf> [options]",
       "partial (weighted) MaxSAT, o/s/v lines"},
      {"sat <file.cnf> [options]", "plain SAT, s/v lines"},
      {"serve [options]", "batch localization service (docs/SERVE.md)"},
      {"dump-tcas [N | --list]",
       "print TCAS source (0: correct, 1..41: mutants)\n"
       "or list the mutant catalog"},
  };
  // Two-column lines; a '\n' in the right column continues under it.
  auto line = [](std::string Left, const char *Right, size_t Col) {
    Left = Left.size() < Col ? Left + std::string(Col - Left.size(), ' ')
                             : Left + "\n" + std::string(Col, ' ');
    for (const char *C = Right; *C; ++C)
      Left += *C == '\n' ? "\n" + std::string(Col, ' ') : std::string(1, *C);
    return Left + "\n";
  };

  std::string Out = std::string("usage: ") + Argv0 + " <command> [args]\n\n" +
                    "commands:\n";
  for (const auto &C : Commands)
    Out += line(std::string("  ") + C[0], C[1], 33);
  Out += "\noptions, under the commands that take them:\n";
  unsigned Group = 0;
  for (const OptionRow &Row : Table) {
    if (Row.Commands != Group) {
      Group = Row.Commands;
      const char *Sep = "";
      for (Command C : AllCommands)
        if (Row.takes(C)) {
          Out += std::string(Sep) + commandName(C);
          Sep = " ";
        }
      Out += ":\n";
    }
    std::string Left = std::string("  ") + Row.Flag;
    if (Row.Meta)
      Left += std::string(" ") + Row.Meta;
    Out += line(Left, Row.Help, 26);
  }
  Out += "\nfuzz takes --entry/--unwind/--bitwidth/--no-bounds for file "
         "subjects only.\n"
         "A budget covers the whole query; on exhaustion the best-so-far "
         "result is\nprinted and the exit code is 2 (0: complete, 1: "
         "input/usage error).\n";
  return Out;
}
