//===- option_parity_test.cpp - CLI/serve option parity -----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Holds the option table (core/OptionTable.h) to its promise: the CLI and
// serve accept and reject the same values, and the reference docs list
// exactly the table's flags and keys.
//
//  * Every numeric row gets its boundary values (min-1, min, max, max+1),
//    a blank-led negative and an int64 overflow, as argv to the real
//    binary and, where the row has a serve key, as a JSON request. Both
//    surfaces must agree with the row's bounds; a rejected value exits 1
//    with nothing on stdout.
//  * The flag tables of docs/CLI.md and the field tables of docs/SERVE.md
//    must list exactly the rows each command takes.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtils.h"
#include "core/OptionTable.h"
#include "serve/Json.h"
#include "serve/LocalizeServer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace bugassist;

using clitest::Cli;
using clitest::exitStatus;
using clitest::Instances;
using clitest::runCommand;

namespace {

/// Fails on every input and has no loops, so any accepted knob value
/// (unwind 1e6, bitwidth 2) still runs in milliseconds.
const char *Program = "int main(int x) {\n"
                      "  assert(x == 0);\n"
                      "  return x;\n"
                      "}\n";
const char *Wcnf = "p wcnf 2 3 10\n10 1 0\n1 2 0\n2 -2 0\n";
const char *Cnf = "p cnf 2 2\n1 -2 0\n2 0\n";

/// Program written to a temp file for the CLI runs, removed at scope end.
struct TempProgram {
  std::string Path;
  TempProgram() {
    char Name[] = "/tmp/bugassist_parity_XXXXXX";
    int Fd = mkstemp(Name);
    EXPECT_GE(Fd, 0);
    std::string Text = Program;
    EXPECT_EQ(write(Fd, Text.data(), Text.size()),
              static_cast<ssize_t>(Text.size()));
    close(Fd);
    Path = Name;
  }
  ~TempProgram() { std::remove(Path.c_str()); }
};

struct Case {
  std::string Text; ///< the value as typed on the command line
  bool Accept;      ///< what the row's bounds say
};

/// The boundary cases of a numeric row.
std::vector<Case> numericCases(const OptionRow &Row) {
  if (Row.Kind == OptionKind::Seconds)
    return {{"0", false},           {"0.001", true}, {"1e9", true},
            {"1000000001", false}, {" -5", false},  {"1e400", false}};
  std::string BelowMin = Row.Min == INT64_MIN ? "-9223372036854775809"
                                              : std::to_string(Row.Min - 1);
  std::string AboveMax = Row.Max == INT64_MAX ? "9223372036854775808"
                                              : std::to_string(Row.Max + 1);
  return {{BelowMin, false},
          {std::to_string(Row.Min), true},
          {std::to_string(Row.Max), true},
          {AboveMax, false},
          {" -5", Row.Min <= -5 && -5 <= Row.Max},
          {"99999999999999999999", false}};
}

bool isNumeric(const OptionRow &Row) {
  return Row.Kind == OptionKind::Int || Row.Kind == OptionKind::Seconds;
}

/// The argv prefix of a cheap run of \p C: localize and repair get \p Prog
/// and one failing input.
std::string cliPrefix(Command C, const std::string &Prog) {
  switch (C) {
  case Command::Localize:
  case Command::Repair:
    return std::string(commandName(C)) + " " + Prog + " --input 1";
  case Command::MaxSat:
    return "maxsat " + Instances + "/weighted.wcnf";
  case Command::Sat:
    return "sat " + Instances + "/mini.cnf";
  case Command::Fuzz:
    return "fuzz tcas";
  case Command::Serve:
    return "serve --batch /dev/null";
  }
  return "";
}

/// The CLI's verdict on one value; checks the exit contract on the way.
bool cliAccepts(const std::string &Prefix, const OptionRow &Row,
                const std::string &Text) {
  std::string Cmd =
      Cli + " " + Prefix + " " + Row.Flag + " '" + Text + "' 2>/dev/null";
  int Raw = 0;
  std::string Out = runCommand(Cmd, Raw);
  int Exit = exitStatus(Raw);
  if (Exit == 1) {
    EXPECT_TRUE(Out.empty()) << "stdout of a rejected run: " << Cmd;
    return false;
  }
  EXPECT_TRUE(Exit == 0 || Exit == 2) << "exit " << Exit << ": " << Cmd;
  return true;
}

/// One serve request of \p C setting \p Row to the JSON value \p Token.
std::string requestLine(Command C, const OptionRow &Row,
                        const std::string &Token) {
  std::string Line = std::string("{\"cmd\":\"") + commandName(C) + "\",";
  switch (C) {
  case Command::Localize:
    Line += "\"source\":\"" + jsonEscape(Program) + "\",\"input\":\"1\",";
    break;
  case Command::Repair:
    Line += "\"source\":\"" + jsonEscape(Program) + "\",\"inputs\":[\"1\"],";
    break;
  case Command::MaxSat:
    Line += "\"wcnf\":\"" + jsonEscape(Wcnf) + "\",";
    break;
  default:
    Line += "\"cnf\":\"" + jsonEscape(Cnf) + "\",";
    break;
  }
  std::string Value = Row.Repeated ? "[" + Token + "]" : Token;
  return Line + "\"" + Row.Key + "\":" + Value + "}\n";
}

/// Response headers of a serve run, in request order.
std::vector<JsonValue> serveHeaders(const std::string &Batch) {
  ServeOptions SO;
  SO.Threads = 2;
  LocalizeServer Server(SO);
  std::istringstream In(Batch);
  std::ostringstream Out, Err;
  Server.run(In, Out, Err);
  std::vector<JsonValue> Headers;
  std::string Raw = Out.str();
  for (size_t Pos = 0; Pos < Raw.size();) {
    size_t Nl = Raw.find('\n', Pos);
    std::string Error;
    auto Header = parseJson(Raw.substr(Pos, Nl - Pos), Error);
    EXPECT_TRUE(Header) << Error;
    if (!Header)
      break;
    auto Bytes = Header->find("bytes")->asInt64();
    Pos = Nl + 1 + static_cast<size_t>(*Bytes);
    Pos = Raw.find('\n', Pos) + 1; // the stats trailer
    Headers.push_back(std::move(*Header));
  }
  return Headers;
}

bool isServed(Command C) {
  Command Parsed;
  return parseServedCommand(commandName(C), Parsed);
}

const Command AllCommands[] = {Command::Localize, Command::Repair,
                               Command::MaxSat,   Command::Sat,
                               Command::Fuzz,     Command::Serve};

} // namespace

// --- value parity ------------------------------------------------------------

TEST(OptionParity, NumericBoundsAgreeOnArgvAndJson) {
  struct Probe {
    std::string What;
    bool Accept;
  };
  TempProgram Prog;
  std::string Batch;
  std::vector<Probe> Probes;
  for (const OptionRow &Row : optionTable()) {
    if (!isNumeric(Row))
      continue;
    for (Command C : AllCommands) {
      if (!Row.takes(C))
        continue;
      for (const Case &K : numericCases(Row)) {
        std::string What =
            std::string(commandName(C)) + " " + Row.Flag + " '" + K.Text + "'";
        if (C == Command::Fuzz && K.Accept) {
          // An accepted fuzz knob starts a sweep (--count 100000 is a long
          // one), so the accept side is checked on the parser the binary
          // runs; every rejection still goes through the binary.
          CommandOptions O(C);
          std::string Arg = std::string(Row.Flag) + "=" + K.Text;
          char *Argv[] = {Arg.data()};
          std::string Error;
          EXPECT_TRUE(parseCommandLine(1, Argv, O, Error))
              << What << ": " << Error;
        } else {
          EXPECT_EQ(cliAccepts(cliPrefix(C, Prog.Path), Row, K.Text),
                    K.Accept)
              << "argv: " << What;
        }
        if (Row.Key && isServed(C)) {
          // The JSON analog of a blank-led number is the number itself.
          std::string Token = K.Text.substr(K.Text.find_first_not_of(' '));
          Batch += requestLine(C, Row, Token);
          Probes.push_back({"json: " + What, K.Accept});
        }
      }
    }
  }
  ASSERT_FALSE(Probes.empty());
  std::vector<JsonValue> Headers = serveHeaders(Batch);
  ASSERT_EQ(Headers.size(), Probes.size());
  for (size_t I = 0; I < Probes.size(); ++I) {
    std::string Status = Headers[I].find("status")->Text;
    std::string Code = Headers[I].find("code")->Text;
    if (Probes[I].Accept) {
      EXPECT_TRUE(Status == "ok" || Status == "incomplete")
          << Probes[I].What << ": " << Status << " "
          << (Headers[I].find("error") ? Headers[I].find("error")->Text : "");
    } else {
      EXPECT_EQ(Status, "error") << Probes[I].What;
      EXPECT_EQ(Code, "bad-request") << Probes[I].What;
    }
  }
}

TEST(OptionParity, ChoicesAgreeOnArgvAndJson) {
  // --engine auto is the default and accepted on both surfaces.
  for (const char *Engine : {"auto", "fumalik", "linear", "bogus"}) {
    bool Valid = std::string(Engine) != "bogus";
    const OptionRow *Row = findFlag(Command::MaxSat, "--engine");
    ASSERT_TRUE(Row);
    EXPECT_EQ(cliAccepts(cliPrefix(Command::MaxSat, ""), *Row, Engine), Valid)
        << Engine;
    std::vector<JsonValue> Headers = serveHeaders(
        requestLine(Command::MaxSat, *Row, std::string("\"") + Engine + "\""));
    ASSERT_EQ(Headers.size(), 1u);
    EXPECT_EQ(Headers[0].find("status")->Text, Valid ? "ok" : "error")
        << Engine;
  }
}

TEST(OptionParity, ThreadsSizesOnlyTheServePool) {
  // Every query runs on one solver; --threads is serve's pool width alone.
  TempProgram Prog;
  for (Command C : {Command::Localize, Command::Repair, Command::MaxSat,
                    Command::Sat, Command::Fuzz}) {
    EXPECT_EQ(findFlag(C, "--threads"), nullptr) << commandName(C);
    int Raw = 0;
    std::string Out = runCommand(Cli + " " + cliPrefix(C, Prog.Path) +
                                     " --threads 2 2>/dev/null",
                                 Raw);
    EXPECT_EQ(exitStatus(Raw), 1) << commandName(C);
    EXPECT_TRUE(Out.empty()) << commandName(C) << ": " << Out;
  }
  const OptionRow *Row = findFlag(Command::Serve, "--threads");
  ASSERT_TRUE(Row);
  EXPECT_EQ(Row->Key, nullptr); // a process option, not a request field
  for (const char *Width : {"1", "64"})
    EXPECT_TRUE(cliAccepts(cliPrefix(Command::Serve, ""), *Row, Width))
        << Width;
}

TEST(OptionParity, EachCommandMapsAFlagOrKeyToOneRow) {
  for (Command C : AllCommands) {
    std::set<std::string> Flags, Keys;
    for (const OptionRow &Row : optionTable()) {
      if (!Row.takes(C))
        continue;
      EXPECT_TRUE(Flags.insert(Row.Flag).second)
          << commandName(C) << " " << Row.Flag;
      if (Row.Key) {
        EXPECT_TRUE(Keys.insert(Row.Key).second)
            << commandName(C) << " " << Row.Key;
      }
    }
  }
}

// --- docs parity -------------------------------------------------------------

namespace {

std::string readDoc(const std::string &Name) {
  std::ifstream In(Instances + "/../../docs/" + Name);
  EXPECT_TRUE(In) << Name;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The backticked spans in the first cell of a markdown table row; empty
/// for other lines.
std::vector<std::string> firstCellSpans(const std::string &Line) {
  std::vector<std::string> Out;
  if (Line.rfind("| ", 0) != 0)
    return Out;
  std::string Cell = Line.substr(2, Line.find(" |", 1) - 2);
  for (size_t Open; (Open = Cell.find('`')) != std::string::npos;) {
    size_t Close = Cell.find('`', Open + 1);
    Out.push_back(Cell.substr(Open + 1, Close - Open - 1));
    Cell.erase(0, Close + 1);
  }
  return Out;
}

/// The flag a span starts with (`--threads N` yields --threads), or "".
std::string leadingFlag(const std::string &Span) {
  if (Span.rfind("--", 0) != 0)
    return "";
  return Span.substr(0, Span.find_first_not_of(
                            "-abcdefghijklmnopqrstuvwxyz"));
}

/// Whether a span is a bare request key (`max_diagnoses`).
bool isKey(const std::string &Span) {
  return !Span.empty() &&
         Span.find_first_not_of("_abcdefghijklmnopqrstuvwxyz") ==
             std::string::npos;
}

std::set<std::string> tableFlags(Command C) {
  std::set<std::string> Out;
  for (const OptionRow &Row : optionTable())
    if (Row.takes(C))
      Out.insert(Row.Flag);
  return Out;
}

std::set<std::string> tableKeys(Command C) {
  std::set<std::string> Out;
  for (const OptionRow &Row : optionTable())
    if (Row.takes(C) && Row.Key)
      Out.insert(Row.Key);
  return Out;
}

} // namespace

TEST(OptionParity, CliDocListsExactlyTheTableFlags) {
  // Each `## bugassist <cmd>` section's flag tables, first column.
  std::istringstream Doc(readDoc("CLI.md"));
  const std::string Heading = "## `bugassist ";
  std::map<std::string, std::set<std::string>> Documented;
  std::string Section, Line;
  while (std::getline(Doc, Line)) {
    if (Line.rfind(Heading, 0) == 0)
      Section = Line.substr(Heading.size(),
                            Line.find_first_of(" `", Heading.size()) -
                                Heading.size());
    else if (Line.rfind("## ", 0) == 0)
      Section.clear();
    else if (!Section.empty())
      for (const std::string &Span : firstCellSpans(Line))
        if (!leadingFlag(Span).empty())
          Documented[Section].insert(leadingFlag(Span));
  }
  for (Command C : {Command::Localize, Command::Repair, Command::Fuzz,
                    Command::MaxSat, Command::Sat})
    EXPECT_EQ(Documented[commandName(C)], tableFlags(C)) << commandName(C);

  // serve's flags are documented in SERVE.md's first table.
  std::istringstream Serve(readDoc("SERVE.md"));
  std::set<std::string> ServeFlags;
  while (std::getline(Serve, Line) && Line.rfind("## ", 0) != 0)
    for (const std::string &Span : firstCellSpans(Line))
      if (!leadingFlag(Span).empty())
        ServeFlags.insert(leadingFlag(Span));
  EXPECT_EQ(ServeFlags, tableFlags(Command::Serve));
}

TEST(OptionParity, ServeDocListsExactlyTheTableKeys) {
  // Field tables under "## Requests": a table applies to the commands its
  // heading names as `cmd: "..."`, or to every command under no such
  // heading. `id` and `cmd` address the request; they are not options.
  std::istringstream Doc(readDoc("SERVE.md"));
  const std::vector<Command> Served = {Command::Localize, Command::Repair,
                                       Command::MaxSat, Command::Sat};
  std::map<std::string, std::set<std::string>> Documented;
  std::vector<std::string> Applies;
  bool InRequests = false;
  std::string Line;
  while (std::getline(Doc, Line)) {
    if (Line.rfind("## ", 0) == 0) {
      InRequests = Line == "## Requests";
      Applies.clear();
      for (Command C : Served)
        Applies.push_back(commandName(C));
      continue;
    }
    if (!InRequests)
      continue;
    if (Line.rfind("### ", 0) == 0) {
      Applies.clear();
      const std::string Named = "cmd: \"";
      for (size_t At = 0; (At = Line.find(Named, At)) != std::string::npos;) {
        At += Named.size();
        Applies.push_back(Line.substr(At, Line.find('"', At) - At));
      }
      continue;
    }
    for (const std::string &Span : firstCellSpans(Line))
      if (isKey(Span) && Span != "id" && Span != "cmd")
        for (const std::string &C : Applies)
          Documented[C].insert(Span);
  }
  for (Command C : Served)
    EXPECT_EQ(Documented[commandName(C)], tableKeys(C)) << commandName(C);
}
