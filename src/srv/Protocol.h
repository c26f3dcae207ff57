//===- Protocol.h - JSON-lines service protocol -----------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lpa_serve wire protocol: one JSON object per line in, one JSON
/// object per line out, over stdin/stdout or a Unix socket. Verbs:
///
///   {"op":"consult","program":"edge(a,b). ..."}
///       -> {"ok":true,"clauses":N,
///           "tables_invalidated":K,"tables_survived":M}
///   {"op":"retract","clause":"edge(a,b)."}
///       -> {"ok":true,"retracted":N,
///           "tables_invalidated":K,"tables_survived":M}
///   {"op":"query","goal":"path(a,X)","max_solutions":10,"deadline_ms":0}
///       -> {"ok":true,"id":Q,"total":N,"solutions":[...],"wall_ms":..,
///           "warm_hits":..,"cold_misses":..,"truncated":false,
///           "deadline_hit":false,"incomplete":false}
///   {"op":"stats"}   -> {"ok":true,"stats":{...}}   (schema lpa.stats.v1)
///   {"op":"health"}  -> {"ok":true,"health":{...}}  (schema lpa.health.v1)
///   {"op":"slowlog"} -> {"ok":true,"slowlog":{...}} (schema lpa.slowlog.v1)
///   {"op":"inspect","top":10,"sort":"bytes"|"answers"|"contention"}
///       -> {"ok":true,"inspect":{...}}              (schema lpa.inspect.v1)
///   {"op":"explain","goal":"path(a,X)","top":10,"max_solutions":10,
///    "deadline_ms":0}
///       -> {"ok":true,"explain":{...}}              (schema lpa.explain.v1)
///   {"op":"metrics"}
///       -> {"ok":true,"metrics":{...}}              (schema lpa.metrics.v1;
///          "exposition" holds Prometheus text)
///   {"op":"reset_stats"} -> {"ok":true}
///   {"op":"shutdown"}    -> {"ok":true,"bye":true}
///
/// Every response carries "ok"; failures carry "error" with a message.
/// Malformed lines produce an error response, never a dropped connection
/// — a service protocol must stay in sync with a buggy client. That holds
/// for oversized input too: a request line longer than MaxRequestLineBytes
/// is drained without being buffered and answered with an error, and JSON
/// nested deeper than the reader's fixed bound is a parse error.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_SRV_PROTOCOL_H
#define LPA_SRV_PROTOCOL_H

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>

namespace lpa {

class AnalysisSession;

/// Longest request line serveStream buffers, in bytes (newline excluded).
/// Far above any real request (the source of all 12 corpus programs is
/// under 50 KB), and the bound on what one client line can make the
/// daemon allocate.
inline constexpr size_t MaxRequestLineBytes = size_t(8) << 20;

/// Handles one request line against \p Session and returns the response
/// line (no trailing newline). Sets \p Shutdown when the request asked
/// the daemon to exit after responding.
std::string handleRequestLine(AnalysisSession &Session, std::string_view Line,
                              bool &Shutdown);

/// Runs the request loop over stdio-style streams: one response line per
/// request line, blank lines skipped, until EOF or a shutdown request. A
/// line over MaxRequestLineBytes is read to its newline without being
/// kept and answered with ok:false; serving continues. \returns true when
/// the client asked for shutdown (as opposed to just disconnecting).
bool serveStream(AnalysisSession &Session, std::FILE *In, std::FILE *Out);

} // namespace lpa

#endif // LPA_SRV_PROTOCOL_H
