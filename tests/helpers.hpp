// Shared helpers for the test suite: formula builders and solver harness.
#pragma once

#include <span>
#include <vector>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace refbmc::test {

inline std::vector<sat::Lit> lits(std::initializer_list<int> dimacs) {
  std::vector<sat::Lit> out;
  for (const int d : dimacs) out.push_back(sat::Lit::from_dimacs(d));
  return out;
}

/// A clause view as a vector, for EXPECT_EQ against lits(...).
inline std::vector<sat::Lit> as_vector(std::span<const sat::Lit> clause) {
  return {clause.begin(), clause.end()};
}

/// Loads a Cnf into a fresh solver (variables created as needed).
inline void load(sat::Solver& solver, const sat::Cnf& cnf) {
  while (solver.num_vars() < cnf.num_vars) solver.new_var();
  for (const auto& clause : cnf.clauses) solver.add_clause(clause);
}

/// Solves a Cnf with the given config.
inline sat::Result solve_cnf(const sat::Cnf& cnf,
                             sat::SolverConfig config = {}) {
  sat::Solver solver(config);
  load(solver, cnf);
  return solver.solve();
}

/// Pigeonhole principle PHP(pigeons, holes): satisfiable iff
/// pigeons <= holes; classically hard for resolution when unsat.
inline sat::Cnf pigeonhole(int pigeons, int holes) {
  sat::Cnf cnf;
  cnf.num_vars = pigeons * holes;
  const auto var = [holes](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h)
      clause.push_back(sat::Lit::make(var(p, h)));
    cnf.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.add_clause({sat::Lit::make(var(p1, h), true),
                        sat::Lit::make(var(p2, h), true)});
  return cnf;
}

/// Random k-SAT with the given clause count.
inline sat::Cnf random_ksat(Rng& rng, int num_vars, int num_clauses,
                            int width) {
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<sat::Lit> clause;
    for (int j = 0; j < width; ++j)
      clause.push_back(
          sat::Lit::make(rng.next_int(0, num_vars - 1), rng.next_bool()));
    cnf.add_clause(clause);
  }
  return cnf;
}

/// XOR chain x1 ^ x2 ^ ... ^ xn = parity, CNF-encoded pairwise; UNSAT when
/// combined with the opposite parity chain over the same variables.
inline void add_xor(sat::Cnf& cnf, int a, int b, int out) {
  // out = a ^ b
  cnf.add_clause({sat::Lit::make(out, true), sat::Lit::make(a),
                  sat::Lit::make(b)});
  cnf.add_clause({sat::Lit::make(out, true), sat::Lit::make(a, true),
                  sat::Lit::make(b, true)});
  cnf.add_clause({sat::Lit::make(out), sat::Lit::make(a, true),
                  sat::Lit::make(b)});
  cnf.add_clause({sat::Lit::make(out), sat::Lit::make(a),
                  sat::Lit::make(b, true)});
}

/// Checks that the solver's model satisfies every clause of `cnf`.
inline bool model_satisfies(const sat::Solver& solver, const sat::Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const sat::Lit l : clause)
      if (solver.model_literal_true(l)) {
        sat = true;
        break;
      }
    if (!sat) return false;
  }
  return true;
}

}  // namespace refbmc::test
