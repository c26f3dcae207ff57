//===- ProtocolSeeds.h - Request scripts the protocol tests share -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The golden session script (protocol_golden_test) and the requests of
// CI's daemon-smoke job. The fuzz driver (protocol_fuzz_test) mutates
// both.
//
//===----------------------------------------------------------------------===//

#ifndef LPA_TESTS_PROTOCOLSEEDS_H
#define LPA_TESTS_PROTOCOLSEEDS_H

namespace lpa::test {

/// Consult, cold and warm queries, an edit, then every read-only surface,
/// a reset and a final stats snapshot.
inline const char *const GoldenSessionScript[] = {
    R"J({"op":"consult","program":":- table path/2. path(X,Y) :- edge(X,Y). path(X,Y) :- path(X,Z), edge(Z,Y). edge(a,b). edge(b,c). edge(c,d). edge(d,b)."})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"retract","clause":"edge(d,b)."})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"explain","goal":"path(b,X)","top":10})J",
    R"J({"op":"metrics"})J",
    R"J({"op":"inspect","top":5,"sort":"bytes"})J",
    R"J({"op":"slowlog"})J",
    R"J({"op":"stats"})J",
    R"J({"op":"health"})J",
    R"J({"op":"reset_stats"})J",
    R"J({"op":"stats"})J",
};

/// The daemon-smoke requests, in order (the 2,000-link chain program
/// shortened to 20 links).
inline const char *const DaemonSmokeRequests[] = {
    R"J({"op":"consult","program":":- table path/2. path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y). edge(a,b). edge(b,c). edge(c,d)."})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"health"})J",
    R"J({"op":"stats"})J",
    R"J({"op":"consult","program":"edge(d,e)."})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"retract","clause":"edge(a,b)."})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"retract","clause":"path(P,Q) :- edge(P,Q)."})J",
    R"J({"op":"query","goal":"path(a,X)"})J",
    R"J({"op":"stats"})J",
    R"J({"op": "consult", "program": ":- table chain/2. chain(X,Y) :- link(X,Y). chain(X,Y) :- chain(X,Z), link(Z,Y).  link(n0,n1). link(n1,n2). link(n2,n3). link(n3,n4). link(n4,n5). link(n5,n6). link(n6,n7). link(n7,n8). link(n8,n9). link(n9,n10). link(n10,n11). link(n11,n12). link(n12,n13). link(n13,n14). link(n14,n15). link(n15,n16). link(n16,n17). link(n17,n18). link(n18,n19). link(n19,n20)."})J",
    R"J({"op": "query", "goal": "chain(n0,X)", "deadline_ms": 1})J",
    R"J({"op": "slowlog"})J",
    R"J({"op":"inspect","top":5,"sort":"bytes"})J",
    R"J({"op":"explain","goal":"path(a,X)","top":5})J",
    R"J({"op":"metrics","max_samples":20})J",
    R"J({"op":"shutdown"})J",
};

} // namespace lpa::test

#endif // LPA_TESTS_PROTOCOLSEEDS_H
