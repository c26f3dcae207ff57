//===- JsonTestUtil.h - JSON helpers shared by the protocol tests -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Writes a parsed JsonValue back through JsonWriter, and compares two
// values structurally. JsonWriter prints doubles with six significant
// digits, so numbers compare equal when they print the same; integral
// values up to 2^53 are written exactly.
//
//===----------------------------------------------------------------------===//

#ifndef LPA_TESTS_JSONTESTUTIL_H
#define LPA_TESTS_JSONTESTUTIL_H

#include "obs/Json.h"
#include "support/JsonValue.h"

#include <cmath>
#include <string>

namespace lpa::test {

inline void writeNumber(JsonWriter &W, double D) {
  if (std::isfinite(D) && D == std::floor(D) && std::fabs(D) <= 9007199254740992.0)
    W.value(static_cast<int64_t>(D));
  else
    W.value(D);
}

inline void writeJsonValue(const JsonValue &V, JsonWriter &W) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    W.value(std::nan("")); // JsonWriter renders non-finite doubles as null.
    return;
  case JsonValue::Kind::Bool:
    W.value(V.asBool());
    return;
  case JsonValue::Kind::Number:
    writeNumber(W, V.asNumber());
    return;
  case JsonValue::Kind::String:
    W.value(std::string_view(V.asString()));
    return;
  case JsonValue::Kind::Array:
    W.beginArray();
    for (const JsonValue &I : V.items())
      writeJsonValue(I, W);
    W.endArray();
    return;
  case JsonValue::Kind::Object:
    W.beginObject();
    for (const auto &[K, M] : V.members()) {
      W.key(K);
      writeJsonValue(M, W);
    }
    W.endObject();
    return;
  }
}

inline std::string toJsonText(const JsonValue &V) {
  std::string Out;
  JsonWriter W(Out);
  writeJsonValue(V, W);
  return Out;
}

/// Structural equality; numbers are equal when JsonWriter prints them alike.
inline bool sameJson(const JsonValue &A, const JsonValue &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case JsonValue::Kind::Null:
    return true;
  case JsonValue::Kind::Bool:
    return A.asBool() == B.asBool();
  case JsonValue::Kind::Number:
    return toJsonText(A) == toJsonText(B);
  case JsonValue::Kind::String:
    return A.asString() == B.asString();
  case JsonValue::Kind::Array:
    if (A.items().size() != B.items().size())
      return false;
    for (size_t I = 0; I < A.items().size(); ++I)
      if (!sameJson(A.items()[I], B.items()[I]))
        return false;
    return true;
  case JsonValue::Kind::Object:
    if (A.members().size() != B.members().size())
      return false;
    for (size_t I = 0; I < A.members().size(); ++I)
      if (A.members()[I].first != B.members()[I].first ||
          !sameJson(A.members()[I].second, B.members()[I].second))
        return false;
    return true;
  }
  return false;
}

} // namespace lpa::test

#endif // LPA_TESTS_JSONTESTUTIL_H
