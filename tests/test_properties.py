"""Randomized property suites over the algebra and rank-solving cores.

Each suite runs at least a thousand seeded cases on small inputs (models
with at most 6 generators in degrees up to 9, exact sequences with slot
dimensions up to 3), so failures reproduce deterministically.  The search
suite compares `search_differentials` with a walk that builds a model
for every point, on boxes sampled by a fixed stride.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from sullivan.algebra import (
    Element,
    SullivanModel,
    coefficient_box,
    search_differentials,
    validate_model,
)
from sullivan.cohomology import betti, coboundary_matrix, element_to_vector
from sullivan.ellipticity import RankVector
from sullivan.exactseq import ExactSequenceProblem, solve_exact_ranks
from sullivan.linalg import RationalMatrix, extend_echelon, rref
from sullivan.pipeline import _candidate_monomials, _coeff_tuple, _relative_skeleton, find_entry

CASES = 1000

NONZERO = (-3, -2, -1, 1, 2, 3)


def random_free_model(rng, max_gens=6, max_degree=9):
    degrees = [rng.randint(1, max_degree) for _ in range(rng.randint(1, max_gens))]
    return SullivanModel.free((f"g{i}d{d}", d) for i, d in enumerate(degrees))


def random_element(rng, model, degree, max_terms=3):
    """Nonzero homogeneous element, or zero when the degree is empty."""
    basis = model.basis_of_degree(degree)
    if not basis:
        return model.zero()
    picks = rng.sample(list(basis), min(len(basis), rng.randint(1, max_terms)))
    out = model.zero()
    for mon in picks:
        out = out + model.monomial(mon) * Fraction(rng.choice(NONZERO))
    return out


def nonempty_degrees(model, top):
    return [k for k in range(1, top + 1) if model.basis_of_degree(k)]


class TestGradedCommutativity:
    def test_sign_rule(self):
        rng = random.Random(101)
        checked = 0
        while checked < CASES:
            model = random_free_model(rng)
            degrees = nonempty_degrees(model, 9)
            if not degrees:
                continue
            p = rng.choice(degrees)
            q = rng.choice(degrees)
            a = random_element(rng, model, p)
            b = random_element(rng, model, q)
            sign = -1 if (p % 2 and q % 2) else 1
            assert a * b == (b * a) * sign
            checked += 1
        assert checked == CASES


def random_degreewise_differential(rng, model):
    """Degree-correct homogeneous assignments, not necessarily square-zero."""
    assignments = {}
    for g in model.generators:
        if rng.random() < 0.5:
            continue
        target = random_element(rng, model, g.degree + 1, max_terms=2)
        if not target.is_zero():
            assignments[g.name] = target
    return model.with_differentials(assignments)


class TestLeibniz:
    def test_product_rule(self):
        rng = random.Random(202)
        checked = 0
        while checked < CASES:
            model = random_degreewise_differential(rng, random_free_model(rng))
            degrees = nonempty_degrees(model, 9)
            if not degrees:
                continue
            p = rng.choice(degrees)
            q = rng.choice(degrees)
            a = random_element(rng, model, p)
            b = random_element(rng, model, q)
            assert model.d(a * b) == model.d(a) * b + (a * model.d(b)) * ((-1) ** p)
            checked += 1
        assert checked == CASES


def random_valid_model(rng):
    """Two layers: closed generators, and generators mapping into them.

    Differentials land in the subalgebra of closed generators, which
    forces d*d = 0; validation is still asserted, not assumed.
    """
    model = random_free_model(rng)
    names = list(model.generator_names)
    rng.shuffle(names)
    closed = set(names[: rng.randint(1, len(names))])
    assignments = {}
    for g in model.generators:
        if g.name in closed or rng.random() < 0.3:
            continue
        candidates = [
            mon for mon in model.basis_of_degree(g.degree + 1)
            if all(n in closed for n, _ in mon.exps)
        ]
        if not candidates:
            continue
        picks = rng.sample(candidates, min(len(candidates), rng.randint(1, 2)))
        target = model.zero()
        for mon in picks:
            target = target + model.monomial(mon) * Fraction(rng.choice(NONZERO))
        assignments[g.name] = target
    return model.with_differentials(assignments)


class TestDifferentialSquaresToZero:
    def test_on_arbitrary_elements(self):
        rng = random.Random(303)
        checked = 0
        while checked < CASES:
            model = random_valid_model(rng)
            assert validate_model(model, require_minimal=False).ok
            degrees = nonempty_degrees(model, 9)
            if not degrees:
                continue
            # inhomogeneous on purpose: sum over a few degrees
            x = model.zero()
            for k in rng.sample(degrees, min(len(degrees), 2)):
                x = x + random_element(rng, model, k)
            assert model.d(model.d(x)).is_zero()
            checked += 1
        assert checked == CASES


FRACTIONS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-1, 6), 2, -1, 3)


def word_of(mon):
    return [name for name, e in mon.exps for _ in range(e)]


def reference_d(model, mon):
    """d(mon) by the Leibniz rule on words: for each letter g of the word
    w, splice each term of d(g) in at g's place with sign (-1)^|w before
    g|, and bring the word to canonical form with normalize_word.  Reads
    d(g) from the model's stored data; no Element product is involved.
    Returns the nonzero terms and how many spliced words died on a
    repeated odd generator."""
    diff = dict(model.diff)
    word = word_of(mon)
    out = {}
    died = 0
    before = 0
    for j, name in enumerate(word):
        for tmon, c in diff.get(name, ()):
            canon, sign = model.normalize_word(word[:j] + word_of(tmon) + word[j + 1:])
            if canon is None:
                died += 1
                continue
            out[canon] = out.get(canon, 0) + (-1) ** before * sign * c
        before += model.degree_of(name)
    return {m: c for m, c in out.items() if c}, died


def random_fraction_differential(rng, model):
    """Degree-correct d on most generators, with non-integral coefficients
    and no d*d = 0 requirement (the Leibniz extension needs none)."""
    assignments = {}
    for g in model.generators:
        basis = model.basis_of_degree(g.degree + 1)
        if not basis or rng.random() < 0.2:
            continue
        picks = rng.sample(list(basis), min(len(basis), rng.randint(1, 3)))
        assignments[g.name] = model.element_from_terms(
            {mon: Fraction(rng.choice(FRACTIONS)) for mon in picks}
        )
    return model.with_differentials(assignments)


class TestCompiledDifferential:
    def test_against_word_leibniz(self):
        rng = random.Random(404)
        checked = 0
        seen = {"fraction": 0, "even_power": 0, "died": 0}
        while checked < CASES:
            model = random_fraction_differential(rng, random_free_model(rng, max_gens=5, max_degree=6))
            degrees = nonempty_degrees(model, 12)
            if not model.diff or not degrees:
                continue
            diff = dict(model.diff)
            basis = model.basis_of_degree(rng.choice(degrees))
            x = {
                mon: Fraction(rng.choice(FRACTIONS))
                for mon in rng.sample(list(basis), min(len(basis), rng.randint(1, 3)))
            }
            want_x = {}
            for mon, c in x.items():
                want, died = reference_d(model, mon)
                assert model.d(model.monomial(mon)).terms == want
                for m, v in want.items():
                    want_x[m] = want_x.get(m, 0) + c * v
                seen["died"] += died > 0
                seen["even_power"] += any(e >= 2 and n in diff for n, e in mon.exps)
                seen["fraction"] += any(
                    v.denominator > 1 for n, _ in mon.exps for _, v in diff.get(n, ())
                )
            want_x = {m: v for m, v in want_x.items() if v}
            assert model.d(model.element_from_terms(x)).terms == want_x
            checked += 1
        assert min(seen.values()) >= 100, seen

    def test_products_against_words(self):
        rng = random.Random(505)
        for _ in range(CASES):
            model = random_free_model(rng)
            degrees = nonempty_degrees(model, 9)
            if not degrees:
                continue
            a = rng.choice(model.basis_of_degree(rng.choice(degrees)))
            b = rng.choice(model.basis_of_degree(rng.choice(degrees)))
            mon, sign = model.normalize_word(word_of(a) + word_of(b))
            want = model.zero() if mon is None else sign * model.monomial(mon)
            assert model.monomial(a) * model.monomial(b) == want

    def test_tables_leave_equality_hash_and_caches_alone(self):
        def build():
            free = SullivanModel.free([("kq2", 2), ("kq3", 3), ("kq5", 5)])
            return free.with_differentials({"kq5": free.gen("kq2") ** 3})

        first, second = build(), build()
        digest = hash(first)
        assert first == second and hash(second) == digest
        assert "_tables" not in vars(first)  # compiled on first use only
        assert first.d(first.gen("kq3") * first.gen("kq5")) == -first.gen("kq2") ** 3 * first.gen("kq3")
        assert "_tables" in vars(first) and "_tables" not in vars(second)
        assert first == second and second == first and hash(first) == digest
        for cached in (coboundary_matrix, betti):
            before = cached.cache_info()
            value = cached(first, 5)
            assert cached(second, 5) is value
            after = cached.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


    def test_coboundary_matrix_matches_columnwise_vectors(self):
        """coboundary_matrix against the matrix assembled one column at a
        time from element_to_vector, on differentials with non-integral
        coefficients."""
        rng = random.Random(606)
        checked = fractional = 0
        while checked < 200:
            model = random_fraction_differential(rng, random_free_model(rng, max_gens=5, max_degree=6))
            k = rng.randint(0, 10)
            cols = []
            for mon in model.basis_of_degree(k):
                dm = model.d(model.monomial(mon))
                cols.append(element_to_vector(dm, k + 1) if dm else {})
            want = [{} for _ in range(model.dimension_of_degree(k + 1))]
            for j, col in enumerate(cols):
                for i, v in col.items():
                    want[i][j] = v
            got = coboundary_matrix(model, k)
            assert (got.rows, got.ncols) == (want, len(cols))
            # int entries would compare equal to the Fractions above
            assert all(type(v) is Fraction for row in got.rows for v in row.values())
            fractional += any(v.denominator > 1 for row in got.rows for v in row.values())
            checked += 1
        assert fractional >= 20


def random_columns(rng, ncols):
    """Up to 9 vectors over range(ncols): random sparse ones with integral
    or fractional entries, zero vectors, repeats of earlier vectors (some
    rescaled) and combinations of two earlier vectors.  Returns them and
    the set of kinds among "fraction", "zero" and "repeated" they show."""
    out = []
    kinds = set()
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if out and kind < 0.15:
            vec = dict(rng.choice(out))
            if rng.random() < 0.5:
                c = rng.choice(FRACTIONS)
                vec = {j: c * v for j, v in vec.items()}
            kinds.add("repeated")
        elif kind < 0.25:
            vec = rng.choice(({}, {rng.randrange(ncols): 0}))
            kinds.add("zero")
        elif len(out) >= 2 and kind < 0.4:
            a, b = rng.sample(out, 2)
            ca, cb = rng.choice(FRACTIONS), rng.choice(FRACTIONS)
            vec = {j: ca * a.get(j, 0) + cb * b.get(j, 0) for j in set(a) | set(b)}
        else:
            vec = {
                j: rng.choice(FRACTIONS) if rng.random() < 0.3 else rng.randint(-4, 4)
                for j in rng.sample(range(ncols), rng.randint(1, ncols))
            }
        out.append(vec)
    if any(Fraction(v).denominator > 1 for vec in out for v in vec.values()):
        kinds.add("fraction")
    return out, kinds


def rank_of(vectors, ncols):
    """Rank of vectors over range(ncols), from the pivots of dense
    Gauss-Jordan: RationalMatrix.rank and rref read extend_echelon, so
    they would check extend_echelon against itself."""
    return len(gauss_jordan_rref(vectors, ncols)[1])


def assert_echelon_form(echelon):
    for lead, row in echelon.items():
        assert lead == min(row)
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1


class TestIncrementalEchelon:
    def test_against_rational_rank(self):
        """extend_echelon, in one step or several, has the rank of the
        same vectors under dense Gauss-Jordan, keeps its input intact,
        and its rows span the vectors' space."""
        rng = random.Random(707)
        seen = {"fraction": 0, "zero": 0, "repeated": 0, "steps": 0, "full": 0}
        for _ in range(CASES):
            ncols = rng.randint(1, 7)
            cols, kinds = random_columns(rng, ncols)
            for kind in kinds:
                seen[kind] += 1
            want = rank_of(cols, ncols)
            once = extend_echelon({}, cols, ncols)
            assert len(once) == want
            assert_echelon_form(once)
            assert rank_of(list(once.values()) + cols, ncols) == want
            cuts = sorted(rng.sample(range(len(cols) + 1), min(len(cols) + 1, rng.randint(1, 3))))
            echelon = {}
            for lo, hi in zip([0] + cuts, cuts + [len(cols)]):
                before = {lead: dict(row) for lead, row in echelon.items()}
                grown = extend_echelon(echelon, cols[lo:hi], ncols)
                assert echelon == before
                assert len(grown) == rank_of(cols[:hi], ncols)
                echelon = grown
            assert_echelon_form(echelon)
            assert len(echelon) == len(once)
            seen["steps"] += len(cuts) >= 2 and len(cols) >= 2
            seen["full"] += want == ncols
        assert min(seen.values()) >= 100, seen

    def test_stops_at_full_rank(self):
        never_read = iter([{0: 1}, {1: Fraction(1, 2)}, None])
        echelon = extend_echelon({}, never_read, 2)
        assert echelon == {0: {0: 1}, 1: {1: 1}}
        assert extend_echelon(echelon, [None], 2) == echelon


def gauss_jordan(dense, ncols):
    """Reference elimination: dense Gauss-Jordan in place on the first
    ncols columns of the rows, pivoting on the first nonzero entry of each
    column.  Returns the pivot columns; the rows come out with the pivot
    rows first, each scaled to 1 at its pivot and alone in its column."""
    pivots = []
    top = 0
    for col in range(ncols):
        piv = next((i for i in range(top, len(dense)) if dense[i][col]), None)
        if piv is None:
            continue
        dense[top], dense[piv] = dense[piv], dense[top]
        dense[top] = [v / dense[top][col] for v in dense[top]]
        for i in range(len(dense)):
            if i != top and dense[i][col]:
                f = dense[i][col]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[top])]
        pivots.append(col)
        top += 1
    return pivots


def gauss_jordan_rref(rows, ncols):
    """Reference rref: the nonzero reduced rows, sparse, and their pivots."""
    dense = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots = gauss_jordan(dense, ncols)
    return [{j: v for j, v in enumerate(row) if v} for row in dense[:len(pivots)]], pivots


def gauss_jordan_solve(rows, ncols, rhs):
    """Reference solve: Gauss-Jordan on the augmented matrix [A | b].
    Returns the solution with free variables 0, or None when a row reads
    0 = nonzero."""
    aug = [[Fraction(r.get(j, 0)) for j in range(ncols)] + [Fraction(rhs.get(i, 0))]
           for i, r in enumerate(rows)]
    pivots = gauss_jordan(aug, ncols)
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    y = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        y[col] = row[-1]
    return y


def random_system(rng):
    """A sparse Fraction matrix with some zero rows and columns and, often,
    rows that combine earlier ones; returns its rows and column count."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    dead_cols = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = {}
        elif len(rows) >= 2 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            ca, cb = rng.choice(FRACTIONS), rng.choice(FRACTIONS)
            row = {j: ca * a.get(j, 0) + cb * b.get(j, 0) for j in set(a) | set(b)}
        else:
            live = [j for j in range(ncols) if j not in dead_cols]
            picks = rng.sample(live, rng.randint(0, len(live))) if live else []
            row = {
                j: rng.choice(FRACTIONS) if rng.random() < 0.3 else rng.randint(-4, 4)
                for j in picks
            }
        rows.append({j: Fraction(v) for j, v in row.items() if v})
    return rows, ncols


class TestCachedSolve:
    def test_against_augmented_gauss_jordan(self):
        """Every solve on one matrix (reading its single elimination of
        [A | I]) equals Gauss-Jordan on the augmented system, free
        variables 0: for a consistent right-hand side A y, a random one,
        the zero one and a dense one."""
        rng = random.Random(808)
        seen = {"inconsistent": 0, "rank_deficient": 0, "fraction": 0, "zero_row": 0, "zero_col": 0}
        for _ in range(CASES):
            rows, ncols = random_system(rng)
            m = RationalMatrix(rows, ncols)
            y_true = [Fraction(rng.choice(FRACTIONS)) if rng.random() < 0.5 else 0 for _ in range(ncols)]
            consistent = {
                i: s for i, r in enumerate(rows) if (s := sum(v * y_true[j] for j, v in r.items()))
            }
            noise = {
                i: Fraction(rng.choice(FRACTIONS))
                for i in rng.sample(range(len(rows)), rng.randint(1, len(rows)))
            }
            for rhs in (consistent, noise, {}):
                want = gauss_jordan_solve(rows, ncols, rhs)
                assert m.solve(rhs) == want
                seen["inconsistent"] += want is None
            dense = [noise.get(i, 0) for i in range(len(rows))]
            assert m.solve(dense) == gauss_jordan_solve(rows, ncols, noise)
            assert m.solve(consistent) is not None
            seen["rank_deficient"] += m.rank() < min(len(rows), ncols)
            seen["fraction"] += any(v.denominator > 1 for r in rows for v in r.values())
            seen["zero_row"] += any(not r for r in rows)
            seen["zero_col"] += any(all(j not in r for r in rows) for j in range(ncols))
        assert min(seen.values()) >= 100, seen

    def test_dense_and_one_entry_rhs_on_rank_deficient_matrix(self):
        """A dense right-hand side reads every column of the stored E, a
        one-entry one a single column; both give Gauss-Jordan's y, and a
        one-entry one off the column space gives None."""
        rows = [{0: Fraction(1), 1: Fraction(2)}, {2: Fraction(3)}, {0: Fraction(2), 1: Fraction(4)}, {}]
        m = RationalMatrix(rows, 3)
        assert m.rank() == 2
        dense = [3, 3, 6, 0]
        assert m.solve(dense) == gauss_jordan_solve(rows, 3, dict(enumerate(dense))) == [3, 0, 1]
        assert m.solve({1: Fraction(3)}) == gauss_jordan_solve(rows, 3, {1: 3}) == [0, 0, 1]
        assert m.solve({0: Fraction(1)}) is gauss_jordan_solve(rows, 3, {0: 1}) is None


def tied_system(rng):
    """A sparse Fraction matrix whose rows share leads and lengths: leads
    among the first three columns, one to three entries per row, plus zero
    rows and exact or scaled duplicates of earlier rows."""
    nrows, ncols = rng.randint(2, 9), rng.randint(1, 7)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = {}
        elif rows and kind < 0.3:
            c = rng.choice((1, 1) + FRACTIONS)
            row = {j: c * v for j, v in rng.choice(rows).items()}
        else:
            lead = rng.randint(0, min(2, ncols - 1))
            rest = rng.sample(range(lead + 1, ncols), min(rng.randint(0, 2), ncols - lead - 1))
            row = {j: rng.choice(FRACTIONS) for j in [lead] + rest}
        rows.append({j: Fraction(v) for j, v in row.items()})
    return rows, ncols


class TestRrefOracle:
    def test_against_dense_gauss_jordan(self):
        """rref, alone and on a RationalMatrix, gives the reduced rows and
        pivots of dense Gauss-Jordan and leaves its rows as they are, on
        matrices where several rows share a lead and a length; solve gives
        Gauss-Jordan's free-variables-0 solution for consistent and random
        right-hand sides."""
        rng = random.Random(1111)
        seen = {"tie": 0, "duplicate": 0, "zero_row": 0, "fraction": 0, "inconsistent": 0}
        for _ in range(CASES):
            rows, ncols = tied_system(rng)
            want = gauss_jordan_rref(rows, ncols)
            before = [dict(r) for r in rows]
            assert rref(rows) == want
            assert rows == before
            m = RationalMatrix(rows, ncols)
            assert m.rref() == want
            y_true = [Fraction(rng.choice(FRACTIONS)) if rng.random() < 0.5 else 0 for _ in range(ncols)]
            consistent = {
                i: s for i, r in enumerate(rows) if (s := sum(v * y_true[j] for j, v in r.items()))
            }
            noise = {i: Fraction(rng.choice(FRACTIONS)) for i in range(len(rows)) if rng.random() < 0.5}
            assert m.solve(consistent) == gauss_jordan_solve(rows, ncols, consistent)
            assert m.solve(consistent) is not None
            expected = gauss_jordan_solve(rows, ncols, noise)
            assert m.solve(noise) == expected
            shapes = [(min(r), len(r)) for r in rows if r]
            seen["tie"] += len(set(shapes)) < len(shapes)
            scaled = [frozenset((j, v / r[min(r)]) for j, v in r.items()) for r in rows if r]
            seen["duplicate"] += len(set(scaled)) < len(scaled)
            seen["zero_row"] += any(not r for r in rows)
            seen["fraction"] += any(v.denominator > 1 for r in rows for v in r.values())
            seen["inconsistent"] += expected is None
        assert min(seen.values()) >= 100, seen


def series_product(degrees, top):
    """Coefficients of prod (1+t^d) over odd d times prod 1/(1-t^d) over even d."""
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for d in degrees:
        if d % 2:
            nxt = coeffs[:]
            for k in range(top - d + 1):
                nxt[k + d] += coeffs[k]
            coeffs = nxt
        else:
            # multiply by the geometric series in t^d
            for k in range(d, top + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs


class TestBasisGeneratingFunction:
    def test_dimension_series(self):
        rng = random.Random(404)
        top = 12
        for _ in range(CASES):
            model = random_free_model(rng)
            expected = series_product([g.degree for g in model.generators], top)
            actual = [len(model.basis_of_degree(k)) for k in range(top + 1)]
            assert actual == expected


def random_problem(rng, max_dim=3, max_interior=10, max_unknown=3):
    """Interior slots with no two unknowns adjacent, dimensions <= max_dim."""
    n = rng.randint(3, max_interior)
    entries = [("0", 0)]
    unknowns = 0
    prev_unknown = False
    for i in range(n):
        if not prev_unknown and unknowns < max_unknown and rng.random() < 0.3:
            entries.append((f"s{i}", None))
            unknowns += 1
            prev_unknown = True
        else:
            entries.append((f"s{i}", rng.randint(0, max_dim)))
            prev_unknown = False
    entries.append(("0", 0))
    return ExactSequenceProblem.of(entries)


class TestAlternatingSum:
    def test_every_solution_sums_to_zero(self):
        rng = random.Random(505)
        seen_solutions = 0
        for _ in range(CASES):
            problem = random_problem(rng)
            for sol in solve_exact_ranks(problem):
                seen_solutions += 1
                assert sol.alternating_sum() == 0
                # exactness at every interior slot
                for i in range(1, len(sol.dimensions) - 1):
                    assert sol.dimensions[i] == sol.map_ranks[i - 1] + sol.map_ranks[i]
                # known slots keep their pinned dimensions
                for slot, dim in zip(problem.slots, sol.dimensions):
                    if slot.known:
                        assert dim == slot.dimension
        assert seen_solutions > CASES  # the generator is not starved


def exactness_admissible(dims):
    """Ground truth: ranks in an exact sequence with zero ends are forced."""
    carried = 0
    for d in dims[1:-1]:
        carried = d - carried
        if carried < 0:
            return False
    return carried == 0


class TestSolverCompleteness:
    def test_matches_brute_force(self):
        rng = random.Random(606)
        for _ in range(CASES):
            problem = random_problem(rng, max_dim=3, max_interior=8, max_unknown=3)
            solved = {s.dimensions for s in solve_exact_ranks(problem)}
            slots = problem.slots
            open_idx = [i for i, s in enumerate(slots) if not s.known]
            template = [s.dimension if s.known else None for s in slots]
            # neighbours of an unknown are known and <= 3, so its dimension
            # is at most 6; scanning to 8 leaves slack on both sides
            brute = set()
            for fill in product(range(9), repeat=len(open_idx)):
                dims = template[:]
                for i, v in zip(open_idx, fill):
                    dims[i] = v
                if exactness_admissible(dims):
                    brute.add(tuple(dims))
            assert solved == brute


def per_point_walk(model, gens, options):
    """The search by building every point: each value becomes an Element
    and a model, and d(v) is evaluated there for every value v that has
    become checkable.  Returns the leaves' paths and the drop count."""
    names = [g.name for g in gens]
    path, leaves, dropped = [], [], 0

    def walk(current, pending):
        nonlocal dropped
        depth = len(path)
        if depth == len(names):
            leaves.append(list(path))
            return
        later = set(names[depth + 1:])
        monomials, points = options(path)
        for number, combo in points:
            value = Element(model, dict(zip(monomials, combo)))
            nxt = current.with_differentials({names[depth]: value})
            waiting = pending
            if value:
                waiting = [(value, {n for m in value.terms for n, _ in m.exps})] + pending
            if any(not nxt.d(v).is_zero() for v, used in waiting if not used & later):
                dropped += 1
                continue
            path.append((number, value))
            walk(nxt, [(v, used) for v, used in waiting if used & later])
            path.pop()

    walk(model, [])
    return leaves, dropped


def sampled_options(candidates, coeffs, per_node, budget):
    """options for both searches over candidates[i], the monomials of the
    i-th generator: at most per_node points of each box, numbered as
    `coefficient_box` numbers them and spread over the box by a stride
    prime to its base, and at most budget points in all, counted in the
    order the search asks for them."""
    values = [c.numerator if c.denominator == 1 else c for c in coeffs]
    base = len(values)
    left = [budget]

    def point(number, size):
        digits = []
        for _ in range(size):
            number, r = divmod(number, base)
            digits.append(values[r])
        return tuple(reversed(digits))

    def options(path):
        monomials = candidates[len(path)]
        total = base ** len(monomials)
        step = max(1, total // per_node)
        while math.gcd(step, base) != 1:
            step += 1

        def points():
            for number in range(0, total, step):
                if not left[0]:
                    return
                left[0] -= 1
                yield number, point(number, len(monomials))

        return monomials, points()

    return options


def test_sampled_points_are_numbered_as_the_box():
    box = list(coefficient_box(3, _coeff_tuple((-1, 0, 1))))
    _, points = sampled_options([[None] * 3], _coeff_tuple((-1, 0, 1)), 27, 27)([])
    assert list(points) == box


class TestSearchAgainstPerPointWalk:
    # relative skeletons over catalog bases; the degree-1 fibers put z
    # into its own candidates, so d(v) is quadratic in the point
    SKELETONS = [
        ("S2xCP2", "1:2,2:1"),
        ("S2", "1:2,2:1"),
        ("CP2", "1:1,2:1,9:1"),
        ("S3", "2:1,5:1"),
    ]
    BOXES = [(0, 1), (-1, 0, 1), (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)]

    @pytest.mark.parametrize("base, fiber", SKELETONS)
    @pytest.mark.parametrize("box", BOXES, ids=["0,1", "-1,0,1", "halves"])
    def test_same_leaves_and_drops(self, base, fiber, box):
        skeleton, gens = _relative_skeleton(find_entry(base).model, RankVector.parse(fiber))
        coeffs = _coeff_tuple(box)
        candidates = [_candidate_monomials(skeleton, g) for g in gens]
        leaves = []

        def leaf(path, model):
            leaves.append(list(path))

        _, dropped = search_differentials(
            skeleton, gens, sampled_options(candidates, coeffs, 12, 600),
            lambda path, model: True, leaf,
        )
        want, want_dropped = per_point_walk(
            skeleton, gens, sampled_options(candidates, coeffs, 12, 600)
        )
        assert dropped == want_dropped
        assert [[(n, str(v)) for n, v in p] for p in leaves] == [
            [(n, str(v)) for n, v in p] for p in want
        ]
