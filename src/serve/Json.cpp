//===- Json.cpp - Minimal strict JSON for the serve protocol --------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include "support/FaultInject.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace bugassist;

const JsonValue *JsonValue::find(std::string_view Name) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Key, Val] : Members)
    if (Key == Name)
      return &Val;
  return nullptr;
}

std::optional<int64_t> JsonValue::asInt64() const {
  if (K != Kind::Number)
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Text.c_str(), &End, 10);
  if (End != Text.c_str() + Text.size() || errno == ERANGE)
    return std::nullopt; // fractional, exponent form, or out of range
  return static_cast<int64_t>(V);
}

std::optional<double> JsonValue::asDouble() const {
  if (K != Kind::Number)
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || errno == ERANGE)
    return std::nullopt;
  return V;
}

namespace {

/// Strict single-pass parser. Positions are byte offsets into the input;
/// errors carry them so a bad request line is diagnosable.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  std::optional<JsonValue> run() {
    skipWs();
    JsonValue V;
    if (!parseValue(V))
      return std::nullopt;
    skipWs();
    if (Pos != Text.size()) {
      fail("trailing characters after the JSON value");
      return std::nullopt;
    }
    return V;
  }

private:
  /// Nesting cap: objects and arrays recurse once per level (here and in
  /// JsonValue's destructor), so a hostile line of thousands of nested
  /// arrays is rejected instead of overflowing the stack. A request is an
  /// object of scalars; no valid one nests more than a couple of levels.
  static constexpr int MaxDepth = 256;

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
  int Depth = 0;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = "byte " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
    case '[': {
      if (Depth == MaxDepth)
        return fail("nesting deeper than " + std::to_string(MaxDepth) +
                    " levels");
      ++Depth;
      bool Ok = Text[Pos] == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Text);
    case 't':
      if (!literal("true"))
        return fail("bad literal");
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = true;
      return true;
    case 'f':
      if (!literal("false"))
        return fail("bad literal");
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = false;
      return true;
    case 'n':
      if (!literal("null"))
        return fail("bad literal");
      Out.K = JsonValue::Kind::Null;
      return true;
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected '\"' to start an object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      for (const auto &[Existing, Unused] : Out.Members)
        if (Existing == Key)
          return fail("duplicate object key \"" + Key + "\"");
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipWs();
      JsonValue Val;
      if (!parseValue(Val))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Val));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      JsonValue Val;
      if (!parseValue(Val))
        return false;
      Out.Elements.push_back(std::move(Val));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  /// Appends \p Code as UTF-8.
  static void appendUtf8(std::string &Out, uint32_t Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos + I];
      uint32_t D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = C - 'a' + 10;
      else if (C >= 'A' && C <= 'F')
        D = C - 'A' + 10;
      else
        return fail("bad hex digit in \\u escape");
      Out = (Out << 4) | D;
    }
    Pos += 4;
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      unsigned char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':  Out += '"';  break;
      case '\\': Out += '\\'; break;
      case '/':  Out += '/';  break;
      case 'b':  Out += '\b'; break;
      case 'f':  Out += '\f'; break;
      case 'n':  Out += '\n'; break;
      case 'r':  Out += '\r'; break;
      case 't':  Out += '\t'; break;
      case 'u': {
        uint32_t Code;
        if (!parseHex4(Code))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (Pos + 1 < Text.size() && Text[Pos] == '\\' &&
              Text[Pos + 1] == 'u') {
            Pos += 2;
            uint32_t Low;
            if (!parseHex4(Low))
              return false;
            if (Low < 0xDC00 || Low > 0xDFFF)
              return fail("bad low surrogate in \\u escape");
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          } else {
            return fail("lone high surrogate in \\u escape");
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("lone low surrogate in \\u escape");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    // Integer part: one digit, or a nonzero digit followed by more.
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("bad JSON value");
    if (Text[Pos] == '0') {
      ++Pos;
    } else {
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required after decimal point");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required in exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    Out.K = JsonValue::Kind::Number;
    Out.Text.assign(Text.substr(Start, Pos - Start));
    return true;
  }
};

} // namespace

std::optional<JsonValue> bugassist::parseJson(std::string_view Text,
                                              std::string &Error) {
  Error.clear();
  // Test-only fault hook (one relaxed load when disarmed): Interrupt
  // simulates a transient parse failure (the serve reader answers it as a
  // malformed line and lives on), BadAlloc escapes to the caller.
  if (faultinject::active() &&
      faultinject::onEvent(faultinject::Event::JsonParse)) {
    Error = "injected parse fault";
    return std::nullopt;
  }
  return Parser(Text, Error).run();
}

std::string bugassist::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\b': Out += "\\b";  break;
    case '\f': Out += "\\f";  break;
    case '\n': Out += "\\n";  break;
    case '\r': Out += "\\r";  break;
    case '\t': Out += "\\t";  break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}
