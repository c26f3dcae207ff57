//===- JsonValue.cpp - Minimal JSON document reader --------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/JsonValue.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace lpa;

namespace {

/// Recursive-descent JSON parser over a string_view. Depth-bounded so a
/// hostile/corrupt trajectory file cannot blow the stack.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ErrorOr<JsonValue> run() {
    skipWs();
    auto V = parseValue(0);
    if (!V)
      return V;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing content after document");
    return V;
  }

private:
  static constexpr int MaxDepth = 64;

  Diagnostic fail(const std::string &Why) const {
    return Diagnostic("json parse error at offset " + std::to_string(Pos) +
                      ": " + Why);
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWs() {
    while (!atEnd()) {
      char C = peek();
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        return;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (atEnd() || peek() != C)
      return false;
    ++Pos;
    return true;
  }

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) != W)
      return false;
    Pos += W.size();
    return true;
  }

  ErrorOr<JsonValue> parseValue(int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (atEnd())
      return fail("unexpected end of input");
    char C = peek();
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"') {
      auto S = parseString();
      if (!S)
        return S.getError();
      return JsonValue::makeString(std::move(*S));
    }
    if (consumeWord("true"))
      return JsonValue::makeBool(true);
    if (consumeWord("false"))
      return JsonValue::makeBool(false);
    if (consumeWord("null"))
      return JsonValue::makeNull();
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    return fail(std::string("unexpected character '") + C + "'");
  }

  ErrorOr<JsonValue> parseObject(int Depth) {
    ++Pos; // '{'
    JsonValue Out = JsonValue::makeObject();
    skipWs();
    if (consume('}'))
      return Out;
    while (true) {
      skipWs();
      if (atEnd() || peek() != '"')
        return fail("expected member key string");
      auto Key = parseString();
      if (!Key)
        return Key.getError();
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after member key");
      skipWs();
      auto Val = parseValue(Depth + 1);
      if (!Val)
        return Val;
      Out.set(std::move(*Key), std::move(*Val));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Out;
      return fail("expected ',' or '}' in object");
    }
  }

  ErrorOr<JsonValue> parseArray(int Depth) {
    ++Pos; // '['
    JsonValue Out = JsonValue::makeArray();
    skipWs();
    if (consume(']'))
      return Out;
    while (true) {
      skipWs();
      auto Val = parseValue(Depth + 1);
      if (!Val)
        return Val;
      Out.push(std::move(*Val));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Out;
      return fail("expected ',' or ']' in array");
    }
  }

  ErrorOr<std::string> parseString() {
    ++Pos; // opening '"'
    std::string Out;
    while (true) {
      if (atEnd())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (atEnd())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= unsigned(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs in bench
        // trajectory files would be exotic; encoded halves round-trip).
        if (Code < 0x80) {
          Out += char(Code);
        } else if (Code < 0x800) {
          Out += char(0xC0 | (Code >> 6));
          Out += char(0x80 | (Code & 0x3F));
        } else {
          Out += char(0xE0 | (Code >> 12));
          Out += char(0x80 | ((Code >> 6) & 0x3F));
          Out += char(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  ErrorOr<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (!atEnd() && peek() >= '0' && peek() <= '9')
      ++Pos;
    if (consume('.'))
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!atEnd() && (peek() == '+' || peek() == '-'))
        ++Pos;
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    std::string Lexeme(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Lexeme.c_str(), &End);
    if (!End || *End != '\0' || End == Lexeme.c_str())
      return fail("malformed number '" + Lexeme + "'");
    // JSON has no infinities, and JsonWriter could not write one back.
    if (!std::isfinite(D))
      return fail("number out of range '" + Lexeme + "'");
    return JsonValue::makeNumber(D);
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

ErrorOr<JsonValue> JsonValue::parse(std::string_view Text) {
  return Parser(Text).run();
}

ErrorOr<std::string> lpa::readFileText(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Diagnostic("cannot open " + Path);
  std::string Out;
  char Buf[64 << 10];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Bad = std::ferror(F);
  std::fclose(F);
  if (Bad)
    return Diagnostic("read error on " + Path);
  return Out;
}
