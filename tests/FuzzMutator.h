//===- FuzzMutator.h - Seeded byte-level input mutation ---------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The mutator the "ctest -L fuzz" drivers share: a fixed-seed PRNG applies
// byte flips, inserts, deletes and splices to seed texts, so every run
// replays the same inputs.
//
//===----------------------------------------------------------------------===//

#ifndef LPA_TESTS_FUZZMUTATOR_H
#define LPA_TESTS_FUZZMUTATOR_H

#include <random>
#include <string>
#include <vector>

namespace lpa::test {

class Mutator {
public:
  /// \p Alphabet holds the structural characters inserts favour.
  Mutator(std::vector<std::string> Seeds, uint64_t Seed, std::string Alphabet)
      : Seeds(std::move(Seeds)), Rng(Seed), Alphabet(std::move(Alphabet)) {}

  size_t below(size_t N) { return N ? size_t(Rng() % N) : 0; }

  /// One to four byte flips, inserts, deletes or splices applied to \p S.
  std::string mutate(std::string S) {
    for (size_t Round = 0, N = 1 + below(4); Round < N; ++Round) {
      switch (below(4)) {
      case 0: // Byte flip.
        if (!S.empty())
          S[below(S.size())] ^= char(1u << below(8));
        break;
      case 1: { // Insert a structural character or a random byte.
        char C = below(2) ? Alphabet[below(Alphabet.size())]
                          : char(below(256));
        S.insert(S.begin() + below(S.size() + 1), C);
        break;
      }
      case 2: // Delete up to eight bytes.
        if (!S.empty()) {
          size_t At = below(S.size());
          S.erase(At, 1 + below(8));
        }
        break;
      case 3: { // Splice: a prefix of S, a suffix of another seed.
        const std::string &Other = Seeds[below(Seeds.size())];
        S = S.substr(0, below(S.size() + 1)) +
            Other.substr(below(Other.size() + 1));
        break;
      }
      }
    }
    return S;
  }

  const std::vector<std::string> Seeds;

private:
  std::mt19937_64 Rng;
  const std::string Alphabet;
};

} // namespace lpa::test

#endif // LPA_TESTS_FUZZMUTATOR_H
