"""Unit and property tests for the CDCL SAT core."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import SatSolver


def brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses
        ):
            return True
    return False


def check_model(solver: SatSolver, clauses: list[list[int]]) -> None:
    model = solver.model()
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause), clause


def test_empty_instance_is_sat():
    solver = SatSolver()
    assert solver.solve()


def test_unit_clause():
    solver = SatSolver()
    solver.add_clause([1])
    assert solver.solve()
    assert solver.model()[1]


def test_contradictory_units():
    solver = SatSolver()
    solver.add_clause([1])
    assert not solver.add_clause([-1]) or not solver.solve()


def test_simple_sat():
    solver = SatSolver()
    clauses = [[1, 2], [-1, 2], [1, -2]]
    for c in clauses:
        solver.add_clause(list(c))
    assert solver.solve()
    check_model(solver, clauses)


def test_simple_unsat():
    solver = SatSolver()
    for c in [[1, 2], [-1, 2], [1, -2], [-1, -2]]:
        solver.add_clause(list(c))
    assert not solver.solve()


def test_pigeonhole_3_into_2_unsat():
    # p(i, j): pigeon i in hole j; vars 1..6
    def var(i, j):
        return i * 2 + j + 1

    solver = SatSolver()
    for i in range(3):
        solver.add_clause([var(i, 0), var(i, 1)])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                solver.add_clause([-var(i1, j), -var(i2, j)])
    assert not solver.solve()


def test_tautology_is_ignored():
    solver = SatSolver()
    solver.add_clause([1, -1])
    solver.add_clause([2])
    assert solver.solve()
    assert solver.model()[2]


def test_incremental_clause_addition():
    solver = SatSolver()
    solver.add_clause([1, 2])
    assert solver.solve()
    solver.finish()
    solver.add_clause([-1])
    assert solver.solve()
    assert solver.model()[2]
    solver.finish()
    solver.add_clause([-2])
    assert not solver.solve()


def test_assumptions_sat_then_unsat():
    solver = SatSolver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 3])
    assert solver.solve(assumptions=[1])
    assert solver.model()[1]
    assert solver.model()[3]
    assert solver.solve(assumptions=[-1])
    assert solver.model()[2]
    solver.finish()
    solver.add_clause([-2])
    assert not solver.solve(assumptions=[-1])
    # Without the assumption the instance is still satisfiable.
    assert solver.solve()


def test_assumption_of_failed_literal():
    solver = SatSolver()
    solver.add_clause([1])
    assert not solver.solve(assumptions=[-1])
    assert solver.solve(assumptions=[1])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_vars=st.integers(min_value=1, max_value=8),
    num_clauses=st.integers(min_value=1, max_value=30),
)
def test_random_3sat_matches_bruteforce(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = []
        for _ in range(width):
            v = rng.randint(1, num_vars)
            clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    solver = SatSolver()
    ok = True
    for c in clauses:
        ok = solver.add_clause(list(c)) and ok
    result = ok and solver.solve()
    assert result == brute_force(num_vars, clauses)
    if result:
        check_model(solver, clauses)
