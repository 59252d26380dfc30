"""Exact-sequence rank solving: frozen instances plus small brute-force oracles.

The long-exact-sequence solver treats a sequence of finite-dimensional
rational vector spaces with some dimensions unknown and returns every
assignment of unknowns admitting exact connecting ranks.  Expected outputs
here were computed by hand from the rank bookkeeping (exactness at slot i
means dim_i = r_in + r_out) and cross-checked against an independent
brute-force enumerator at the bottom of this file.
"""

import itertools

import pytest

from sullivan.cohomology import BettiTable
from sullivan.ellipticity import RankVector
from sullivan.exactseq import (
    ExactSequenceProblem,
    RankSolution,
    Slot,
    UnboundedProblemError,
    fiber_rank_vectors,
    homotopy_sequence_problem,
    solve_exact_ranks,
    wang_fiber_betti,
)


def rv(text):
    return RankVector.parse(text)


class TestProblemConstruction:
    def test_slot_known_flag(self):
        assert Slot("A", 3).known
        assert not Slot("A", None).known

    def test_end_slots_must_be_zero(self):
        with pytest.raises(ValueError):
            ExactSequenceProblem.of([("0", 0), ("A", 1), ("end", 2)])
        with pytest.raises(ValueError):
            ExactSequenceProblem.of([("start", None), ("A", 1), ("0", 0)])

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            ExactSequenceProblem.of([("0", 0), ("A", -1), ("0", 0)])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ExactSequenceProblem.of([("0", 0), ("0", 0)])


class TestSolveKnownInstances:
    def test_single_unknown_between_zeros(self):
        # 0 -> A -> Q -> 0 forces A = Q
        problem = ExactSequenceProblem.of([("0", 0), ("A", None), ("Q", 1), ("0", 0)])
        sols = solve_exact_ranks(problem)
        assert len(sols) == 1
        assert sols[0].dimensions == (0, 1, 1, 0)

    def test_extension_of_lines(self):
        # 0 -> Q -> A -> Q -> 0 forces A = Q^2
        problem = ExactSequenceProblem.of(
            [("0", 0), ("Q", 1), ("A", None), ("Q", 1), ("0", 0)]
        )
        sols = solve_exact_ranks(problem)
        assert len(sols) == 1
        assert sols[0].dimensions == (0, 1, 2, 1, 0)

    def test_fully_known_consistent(self):
        problem = ExactSequenceProblem.of(
            [("0", 0), ("A", 1), ("B", 3), ("C", 2), ("0", 0)]
        )
        sols = solve_exact_ranks(problem)
        assert len(sols) == 1
        assert sols[0].map_ranks[0] == 0

    def test_fully_known_inconsistent(self):
        # alternating sum 1 - 3 + 1 != 0, no exact structure exists
        problem = ExactSequenceProblem.of(
            [("0", 0), ("A", 1), ("B", 3), ("C", 1), ("0", 0)]
        )
        assert solve_exact_ranks(problem) == []

    def test_unknown_with_multiple_solutions(self):
        # 0 -> A -> Q^2 -> B -> 0 with A, B unknown: A - 2 + B = 0 and the
        # middle splits, so (A, B) ranges over (0,2), (1,1), (2,0)
        problem = ExactSequenceProblem.of(
            [("0", 0), ("A", None), ("M", 2), ("B", None), ("0", 0)]
        )
        sols = solve_exact_ranks(problem)
        dims = [s.dimensions for s in sols]
        assert dims == [(0, 0, 2, 2, 0), (0, 1, 2, 1, 0), (0, 2, 2, 0, 0)]

    def test_adjacent_unknowns_rejected(self):
        problem = ExactSequenceProblem.of(
            [("0", 0), ("A", None), ("B", None), ("C", 1), ("0", 0)]
        )
        with pytest.raises(UnboundedProblemError):
            solve_exact_ranks(problem)

    def test_alternating_sum_vanishes(self):
        problem = ExactSequenceProblem.of(
            [("0", 0), ("A", None), ("M", 4), ("B", None), ("C", 2), ("0", 0)]
        )
        for sol in solve_exact_ranks(problem):
            assert sum((-1) ** i * d for i, d in enumerate(sol.dimensions)) == 0

    def test_map_ranks_shape(self):
        problem = ExactSequenceProblem.of([("0", 0), ("A", None), ("Q", 1), ("0", 0)])
        sol = solve_exact_ranks(problem)[0]
        # one rank per arrow, including the two trivial end arrows
        assert len(sol.map_ranks) == 3
        assert sol.map_ranks[0] == 0
        assert sol.map_ranks[-1] == 0


class TestHomotopyProblem:
    def test_slot_layout(self):
        problem = homotopy_sequence_problem(rv("2:1,3:1,5:1"), rv("3:1"))
        labels = [s.label for s in problem.slots]
        assert labels[0] == "0"
        assert labels[-1] == "0"
        # degrees descend in blocks of three: fiber, total, base
        assert labels[-2] == "pi1(B)"
        interior = labels[1:-1]
        assert len(interior) % 3 == 0

    def test_base_dimensions_pinned(self):
        problem = homotopy_sequence_problem(rv("2:1,3:1,5:1"), rv("3:1"))
        by_label = {s.label: s.dimension for s in problem.slots}
        assert by_label["pi3(B)"] == 1
        assert by_label["pi2(B)"] == 0
        assert by_label["pi5(E)"] == 1
        assert by_label["pi4(F)"] is None


class TestFiberRankVectors:
    """Solution sets frozen from hand-solved long exact sequences.

    Each list is complete for pure exactness.  Entries violating the
    dimension formula are still returned; discarding those is a
    downstream concern.
    """

    def test_over_odd_sphere_base(self):
        out = fiber_rank_vectors(rv("2:1,3:1,5:1"), rv("3:1"))
        assert [str(f) for f in out] == ["{2:1, 5:1}", "{2:2, 3:1, 5:1}"]

    def test_over_even_sphere_base(self):
        out = fiber_rank_vectors(rv("2:1,3:1,5:1"), rv("2:1,3:1"))
        assert [str(f) for f in out] == [
            "{5:1}",
            "{2:1, 3:1, 5:1}",
            "{1:1, 2:1, 5:1}",
            "{1:1, 2:2, 3:1, 5:1}",
        ]

    def test_over_projective_plane_base(self):
        out = fiber_rank_vectors(rv("2:1,5:1,9:1"), rv("2:1,5:1"))
        assert [str(f) for f in out] == [
            "{9:1}",
            "{4:1, 5:1, 9:1}",
            "{1:1, 2:1, 9:1}",
            "{1:1, 2:1, 4:1, 5:1, 9:1}",
        ]

    def test_over_five_sphere_base(self):
        out = fiber_rank_vectors(rv("2:1,5:1,9:1"), rv("5:1"))
        assert [str(f) for f in out] == ["{2:1, 9:1}", "{2:1, 4:1, 5:1, 9:1}"]

    def test_product_total_contains_factor_fiber(self):
        # a genuine product bundle must appear among the solutions
        out = fiber_rank_vectors(rv("2:1,3:1,5:1"), rv("2:1,3:1"))
        assert rv("5:1") in out
        out = fiber_rank_vectors(rv("2:1,5:1,9:1"), rv("2:1,5:1"))
        assert rv("9:1") in out

    def test_nonsimply_connected_base_rejected(self):
        with pytest.raises(ValueError):
            fiber_rank_vectors(rv("2:1,3:1,5:1"), rv("1:1,2:1"))

    def test_canonical_order(self):
        out = fiber_rank_vectors(rv("2:1,3:1,5:1"), rv("2:1,3:1"))
        keys = [f.padded(10) for f in out]
        assert keys == sorted(keys)

    def test_high_degree_total_walks_without_recursion(self):
        # 3 slots per degree from 1205 down to 1, more than the interpreter's
        # recursion limit allows a walk that recurses once per slot.  By
        # hand: for k outside {1, 2, 1201}, pi_k(F) sits between
        # pi_(k+1)(B) = 0 and pi_k(E) = 0, so it is 0.  pi_1202(B) =
        # pi_1201(B) = 0 make pi_1201(F) -> pi_1201(E) an isomorphism, and
        # pi_k(E) = 0 for k = 1, 2, 3 makes the connecting maps
        # pi_3(B) -> pi_2(F) and pi_2(B) -> pi_1(F) isomorphisms
        out = fiber_rank_vectors(rv("1201:1"), rv("2:1,3:1"))
        assert [str(f) for f in out] == ["{1:1, 2:1, 1201:1}"]

    def test_fiber_absorbs_missing_base_ranks(self):
        # base carries pi_7 the total lacks; the connecting map hands it
        # to the fiber one degree down
        out = fiber_rank_vectors(rv("3:1"), rv("7:1"))
        assert [str(f) for f in out] == ["{3:1, 6:1}"]


class TestDimensionFiltering:
    """The short case lists used downstream arise by discarding solutions
    whose formal dimension misses the required fiber dimension."""

    def test_even_sphere_base_filter(self):
        from sullivan.ellipticity import formal_dimension

        out = fiber_rank_vectors(rv("2:1,3:1,5:1"), rv("2:1,3:1"))
        survivors = [f for f in out if formal_dimension(f) == 5]
        assert [str(f) for f in survivors] == ["{5:1}", "{1:1, 2:1, 5:1}"]
        # the two rejects both compute to 7
        rejects = [f for f in out if formal_dimension(f) != 5]
        assert all(formal_dimension(f) == 7 for f in rejects)

    def test_projective_base_filter(self):
        from sullivan.ellipticity import formal_dimension

        out = fiber_rank_vectors(rv("2:1,5:1,9:1"), rv("2:1,5:1"))
        survivors = [f for f in out if formal_dimension(f) == 9]
        assert [str(f) for f in survivors] == ["{9:1}", "{1:1, 2:1, 9:1}"]


class TestWang:
    TOTAL = BettiTable((1, 0, 1, 0, 0, 1, 0, 1))  # rank-one even times odd sphere

    def test_pinned_first_betti_forces_unique(self):
        sols = wang_fiber_betti(2, self.TOTAL, 5, known_fiber={1: 1})
        assert len(sols) == 1
        assert tuple(sols[0].values) == (1, 1, 2, 2, 1, 1)

    def test_zero_first_betti_gives_sphere_profile(self):
        sols = wang_fiber_betti(2, self.TOTAL, 5, known_fiber={1: 0})
        assert len(sols) == 1
        assert tuple(sols[0].values) == (1, 0, 0, 0, 0, 1)

    def test_unconstrained_superset(self):
        sols = wang_fiber_betti(2, self.TOTAL, 5)
        profiles = {tuple(s.values) for s in sols}
        assert (1, 1, 2, 2, 1, 1) in profiles
        assert (1, 0, 0, 0, 0, 1) in profiles

    def test_poincare_ends_always_pinned(self):
        for s in wang_fiber_betti(2, self.TOTAL, 5):
            assert s[0] == 1
            assert s[5] == 1

    def test_conflicting_pin_returns_nothing(self):
        assert wang_fiber_betti(2, self.TOTAL, 5, known_fiber={0: 2}) == []
        assert wang_fiber_betti(2, self.TOTAL, 5, known_fiber={5: 0}) == []

    def test_fiber_too_high_for_total_space_returns_nothing(self):
        # b_(fiber_dim+2)(E) = b_fiber_dim(F) = 1 cannot hold once fiber_dim + 2
        # is past TOTAL's top degree 7; a deep fiber must not recurse per degree
        assert wang_fiber_betti(2, self.TOTAL, 1200) == []
        assert wang_fiber_betti(2, self.TOTAL, 6, known_fiber={1: 0}) == []

    def test_deep_fiber_walks_without_recursion(self):
        # E = S^1201 over S^2 with a 1199-dimensional fiber.  As b_k(E) =
        # coker(H^(k-1)(F) -> H^(k-2)(F)) + ker(H^k(F) -> H^(k-1)(F)) and
        # b_k(E) = 0 for 1 <= k <= 1200, every map H^k(F) -> H^(k-1)(F) with
        # 1 <= k <= 1199 is an isomorphism, so b_k(F) = b_0(F) = 1 throughout;
        # b_1201(E) = 1 is the cokernel of 0 = H^1200(F) -> H^1199(F).
        total = BettiTable((1,) + (0,) * 1200 + (1,))
        assert wang_fiber_betti(2, total, 1199) == [BettiTable((1,) * 1200)]

    def test_upper_bounds_cut_solutions(self):
        # caps filter the profiles after the walk (check_wang_bound's
        # monomial-count bounds): capping b_2(F) at 1 drops the profile
        # needing b_2 = 2
        sols = wang_fiber_betti(2, self.TOTAL, 5, known_fiber={1: 1})
        assert sols and all(s[2] == 2 for s in sols)
        assert [s for s in sols if s[2] <= 1] == []

    def test_upper_bound_on_pinned_degree(self):
        # b_0 = 1 is pinned, so a cap of 0 there keeps no profile
        sols = wang_fiber_betti(2, self.TOTAL, 5)
        assert sols and all(s[0] == 1 for s in sols)
        assert [s for s in sols if s[0] <= 0] == []

    def test_odd_sphere_product_recovered(self):
        # total = S^3 x S^5 fibered over S^3 leaves an S^5-like fiber
        total = BettiTable((1, 0, 0, 1, 0, 1, 0, 0, 1))
        sols = wang_fiber_betti(3, total, 5, known_fiber={1: 0, 2: 0})
        assert any(tuple(s.values) == (1, 0, 0, 0, 0, 1) for s in sols)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            wang_fiber_betti(1, self.TOTAL, 5)
        with pytest.raises(ValueError):
            wang_fiber_betti(2, self.TOTAL, -1)

    @pytest.mark.parametrize("degree", [-1, 6, 9])
    def test_pin_outside_fiber_degrees_rejected(self, degree):
        # b_6 = 1 contradicts a 5-dimensional fiber; it must not be dropped
        with pytest.raises(ValueError, match=f"degree {degree} outside 0..5"):
            wang_fiber_betti(2, self.TOTAL, 5, known_fiber={1: 0, degree: 1})


# brute-force cross-check ----------------------------------------------------

def brute_force_solutions(dims_pattern):
    """Enumerate exact-rank assignments directly.

    dims_pattern: list of int | None (without the zero ends).  A dimension
    tuple is exact iff ranks r_i with dim_i = r_{i-1} + r_i exist, which
    pins every r from the left end.  No unknown dimension can exceed the
    total known mass, so that sum bounds the search.
    """
    cap = sum(d for d in dims_pattern if d is not None)
    unknown_positions = [i for i, d in enumerate(dims_pattern) if d is None]
    found = []
    for fill in itertools.product(range(cap + 1), repeat=len(unknown_positions)):
        dims = list(dims_pattern)
        for pos, value in zip(unknown_positions, fill):
            dims[pos] = value
        carried = 0
        ok = True
        for d in dims:
            out = d - carried
            if out < 0:
                ok = False
                break
            carried = out
        if ok and carried == 0:
            found.append(tuple([0] + dims + [0]))
    return sorted(found)


@pytest.mark.parametrize("pattern", [
    [None, 2, None],
    [1, None, 2, None],
    [None, 3, None, 1],
    [2, None, 2, None, 2],
    [None, 1, 1, None, 2],
])
def test_solver_matches_brute_force(pattern):
    entries = [("0", 0)]
    entries += [(f"A{i}", d) for i, d in enumerate(pattern)]
    entries += [("0", 0)]
    problem = ExactSequenceProblem.of(entries)
    got = sorted(s.dimensions for s in solve_exact_ranks(problem))
    assert got == brute_force_solutions(pattern)


def test_rank_solution_is_value_object():
    a = RankSolution(dimensions=(0, 1, 1, 0), map_ranks=(0, 1, 0))
    b = RankSolution(dimensions=(0, 1, 1, 0), map_ranks=(0, 1, 0))
    assert a == b
