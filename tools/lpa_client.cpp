//===- lpa_client.cpp - Scripted client for lpa_serve -------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Drives a running lpa_serve over its Unix socket: reads JSON-lines
// requests from stdin (or --request flags, in order), sends each, prints
// each response to stdout, and VALIDATES it — every response must parse
// as JSON and carry "ok":true, or the client exits nonzero. That makes a
// shell pipeline into a protocol conformance check, which is exactly how
// the CI smoke job uses it.
//
// Usage:
//   lpa_client --socket PATH [--request 'JSON']... [--last FILE]
//              [--assert-nonzero DOTTED.PATH]...
//
//   --last FILE            write the final response line to FILE (the CI
//                          job uploads the stats snapshot this way)
//   --assert-nonzero P     after the run, require numeric field P (dotted
//                          path into the final response, e.g.
//                          "stats.warm_hits") to be > 0
//
// Exit: 0 all responses ok and assertions hold; 1 protocol/assertion
// failure; 2 usage or connection errors.
//
//===----------------------------------------------------------------------===//

#include "LineClient.h"
#include "support/JsonValue.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace lpa;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--request 'JSON']... [--last FILE]\n"
               "          [--assert-nonzero DOTTED.PATH]...\n"
               "Requests not given with --request are read from stdin, one\n"
               "JSON object per line.\n",
               Argv0);
  return 2;
}

/// Resolves "a.b.c" against a parsed response object.
const JsonValue *lookupDotted(const JsonValue &Root, std::string_view Path) {
  const JsonValue *V = &Root;
  while (!Path.empty()) {
    size_t Dot = Path.find('.');
    V = V->find(Path.substr(0, Dot));
    if (!V)
      return nullptr;
    Path = (Dot == std::string_view::npos) ? std::string_view()
                                           : Path.substr(Dot + 1);
  }
  return V;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath, LastPath;
  std::vector<std::string> Requests;
  std::vector<std::string> NonzeroAsserts;

  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (A == "--socket" && I + 1 < argc)
      SocketPath = argv[++I];
    else if (A == "--request" && I + 1 < argc)
      Requests.push_back(argv[++I]);
    else if (A == "--last" && I + 1 < argc)
      LastPath = argv[++I];
    else if (A == "--assert-nonzero" && I + 1 < argc)
      NonzeroAsserts.push_back(argv[++I]);
    else
      return usage(argv[0]);
  }
  if (SocketPath.empty())
    return usage(argv[0]);

  LineClient Client(SocketPath);
  if (!Client.ok()) {
    std::fprintf(stderr, "lpa_client: cannot connect to %s\n",
                 SocketPath.c_str());
    return 2;
  }

  // With no --request flags, forward stdin lines.
  if (Requests.empty()) {
    std::string Line;
    int C;
    for (;;) {
      Line.clear();
      while ((C = std::fgetc(stdin)) != EOF && C != '\n')
        Line.push_back(static_cast<char>(C));
      if (!Line.empty())
        Requests.push_back(Line);
      if (C == EOF)
        break;
    }
  }

  int Rc = 0;
  std::string LastResponse, Resp;
  for (const std::string &Req : Requests) {
    if (Req.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    if (!Client.request(Req, Resp)) {
      std::fprintf(stderr, "lpa_client: server closed connection\n");
      Rc = 1;
      break;
    }
    std::printf("%s\n", Resp.c_str());
    LastResponse = Resp;

    auto Parsed = JsonValue::parse(Resp);
    if (!Parsed) {
      std::fprintf(stderr, "lpa_client: response is not valid JSON: %s\n",
                   Parsed.getError().str().c_str());
      Rc = 1;
      continue;
    }
    const JsonValue *Ok = Parsed->find("ok");
    if (!Ok || !Ok->asBool()) {
      const JsonValue *Err = Parsed->find("error");
      std::fprintf(stderr, "lpa_client: request failed: %s\n",
                   Err && Err->isString() ? Err->asString().c_str()
                                          : "(no error message)");
      Rc = 1;
    }
  }

  if (!LastPath.empty() && !LastResponse.empty()) {
    if (std::FILE *F = std::fopen(LastPath.c_str(), "w")) {
      std::fwrite(LastResponse.data(), 1, LastResponse.size(), F);
      std::fputc('\n', F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "lpa_client: cannot write %s\n", LastPath.c_str());
      Rc = 1;
    }
  }

  if (!NonzeroAsserts.empty()) {
    auto Parsed = JsonValue::parse(LastResponse);
    for (const std::string &P : NonzeroAsserts) {
      const JsonValue *V = Parsed ? lookupDotted(*Parsed, P) : nullptr;
      double N = V && V->isNumber() ? V->asNumber() : 0;
      if (!(N > 0)) {
        std::fprintf(stderr, "lpa_client: assertion failed: %s = %g\n",
                     P.c_str(), N);
        Rc = 1;
      }
    }
  }

  return Rc;
}
