import random
from fractions import Fraction

import pytest

from sullivan import algebra, cohomology, linalg
from sullivan.algebra import Monomial, SullivanModel
from sullivan.cohomology import (
    BettiTable,
    betti,
    betti_table,
    coboundary_matrix,
    element_to_vector,
    is_coboundary,
)


def sphere(n, prefix="x"):
    if n % 2 == 1:
        return SullivanModel.free([(f"{prefix}{n}", n)])
    free = SullivanModel.free(
        [(f"{prefix}{n}", n), (f"{prefix}{2 * n - 1}", 2 * n - 1)]
    )
    return free.with_differentials(
        {f"{prefix}{2 * n - 1}": free.gen(f"{prefix}{n}") ** 2}
    )


def projective(n):
    # H = Q[x]/(x^(n+1)), |x| = 2
    free = SullivanModel.free([("x2", 2), (f"x{2 * n + 1}", 2 * n + 1)])
    return free.with_differentials({f"x{2 * n + 1}": free.gen("x2") ** (n + 1)})


def product(*models):
    gens = []
    diffs = {}
    for m in models:
        gens.extend(m.generators)
    free = SullivanModel.free(gens)
    for m in models:
        for name in m.generator_names:
            dx = m.d_of_generator(name).terms.items()
            diffs[name] = sum((c * free.word(mon.exps) for mon, c in dx), free.zero())
    return free.with_differentials(diffs)


def flag6():
    free = SullivanModel.free([("a2", 2), ("a3", 3), ("b2", 2), ("b5", 5)])
    return free.with_differentials(
        {"a3": free.gen("a2") ** 2, "b5": free.gen("b2") ** 3}
    )


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestBetti:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_spheres(self, n):
        m = sphere(n)
        for k in range(2 * n + 2):
            assert betti(m, k) == (1 if k in (0, n) else 0)

    @pytest.mark.parametrize("n,top_deg", [(2, 4), (3, 6)])
    def test_projective_spaces(self, n, top_deg):
        m = projective(n)
        vals = betti_table(m, 2 * n + 4).values
        expected = tuple(
            1 if k % 2 == 0 and k <= top_deg else 0 for k in range(2 * n + 5)
        )
        assert vals == expected

    def test_flag6_table(self):
        assert betti_table(flag6(), 6).values == (1, 0, 2, 0, 2, 0, 1)

    def test_negative_degree(self):
        assert betti(sphere(2), -1) == 0


class TestKunneth:
    @pytest.mark.parametrize(
        "factors,top",
        [
            ((2, 5), 7),
            ((3, 3), 6),
            ((2, 2, 3), 7),
            ((3, 4), 7),
        ],
    )
    def test_sphere_products_convolve(self, factors, top):
        ms = [sphere(n, prefix) for n, prefix in zip(factors, "abc")]
        prod = product(*ms)
        seqs = [[betti(m, k) for k in range(top + 1)] for m in ms]
        conv = seqs[0]
        for s in seqs[1:]:
            conv = convolve(conv, s)
        assert [betti(prod, k) for k in range(top + 1)] == conv[: top + 1]

    def test_two_five_product_profile(self):
        prod = product(sphere(2), sphere(5))
        assert betti_table(prod, 7).values == (1, 0, 1, 0, 0, 1, 0, 1)

    def test_projective_sphere_product_profile(self):
        prod = product(projective(2), sphere(9))
        table = betti_table(prod, 13)
        assert tuple(k for k, b in enumerate(table.values) if b) == (0, 2, 4, 9, 11, 13)
        assert all(table[k] in (0, 1) for k in range(14))


class TestBettiTable:
    def test_indexing_out_of_range(self):
        t = BettiTable((1, 0, 1))
        assert t[2] == 1 and t[5] == 0 and t[-1] == 0

    def test_total(self):
        # the flag manifold U(3)/T^3 has total Betti number |S_3| = 6
        assert sum(betti_table(flag6(), 6).values) == 6


class TestTopDegree:
    """The top degree with cohomology is the formal dimension."""

    def test_projective_plane(self):
        table = betti_table(projective(2), 10)
        assert max(k for k in range(11) if table[k]) == 4

    def test_odd_sphere(self):
        table = betti_table(sphere(3), 3)
        assert max(k for k in range(4) if table[k]) == 3


def pair(functional, x):
    """The value of a functional over basis monomials on the element x."""
    return sum(c * x.terms.get(mon, 0) for mon, c in functional.items())


class TestCoboundary:
    def test_exact_class_with_witness(self):
        m = projective(2)
        x = m.gen("x2") ** 3
        v = is_coboundary(x)
        assert v.is_coboundary
        assert m.d(v.witness) == x

    def test_surviving_class_with_functional(self):
        m = sphere(2)
        x = m.gen("x2")
        v = is_coboundary(x)
        assert not v.is_coboundary
        assert pair(v.functional, x) != 0
        # the functional must kill every coboundary of that degree
        for mon in m.basis_of_degree(1):
            dm = m.d(m.word(mon.exps))
            assert pair(v.functional, dm) == 0

    def test_exact_in_product(self):
        m = product(sphere(2), sphere(4))
        x = m.d(m.gen("x3") * m.gen("x4") + m.gen("x7"))
        v = is_coboundary(x)
        assert v.is_coboundary and m.d(v.witness) == x

    def test_zero_is_exact(self):
        m = sphere(2)
        assert is_coboundary(m.zero()).is_coboundary

    def test_constant_is_not_exact(self):
        m = sphere(2)
        v = is_coboundary(m.unit())
        assert not v.is_coboundary
        assert pair(v.functional, m.unit()) == 1

    def test_element_to_vector_rejects_a_term_of_another_degree(self):
        m = flag6()
        x = m.gen("a2") ** 2 + m.gen("a3")
        assert element_to_vector(m.gen("a2") * m.gen("b2"), 4) == {1: 1}
        with pytest.raises(ValueError, match="term a3 is not of degree 4"):
            element_to_vector(x, 4)
        with pytest.raises(ValueError, match="term a2 is not of degree -1"):
            element_to_vector(m.gen("a2"), -1)

    def test_rejects_non_cocycle(self):
        m = sphere(2)
        with pytest.raises(ValueError):
            is_coboundary(m.gen("x3"))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_coboundaries_recognized(self, seed):
        rng = random.Random(seed)
        m = flag6()
        k = rng.choice([3, 5, 7])
        basis = m.basis_of_degree(k)
        y = m.zero()
        for mon in basis:
            c = rng.randint(-2, 2)
            if c:
                y = y + c * m.word(mon.exps)
        x = m.d(y)
        if x.is_zero():
            return
        v = is_coboundary(x)
        assert v.is_coboundary
        assert m.d(v.witness) == x


def euler(table):
    return sum((-1) ** k * b for k, b in enumerate(table.values))


class TestEuler:
    def test_flag6(self):
        # chi(U(3)/T^3) = |S_3| = 6
        assert euler(betti_table(flag6(), 6)) == 6

    def test_odd_sphere_vanishes(self):
        assert euler(betti_table(sphere(3), 3)) == 0

    def test_matrix_is_cached(self):
        m = sphere(2)
        assert coboundary_matrix(m, 3) is coboundary_matrix(m, 3)


def seeded_square_pure(seed):
    """d(y1) = x1^3 + a*x1^2*x2 + b*x1*x3, d(y2) = x2^2 + c*x3, d(y3) = x3^2
    with |x1| = |x2| = 2, |x3| = 4 and seeded nonzero a, b, c.  The leading
    terms x1^3, x2^2, x3^2 are pairwise coprime under lex order, so the
    d(y_i) form a regular sequence and H = Q[x]/(d(y)) has Poincare
    polynomial (1 + t^2 + t^4)(1 + t^2)(1 + t^4), formal dimension 10."""
    rng = random.Random(seed)
    a, b, c = (Fraction(rng.choice((-7, -3, -2, 2, 3, 5)), rng.randint(1, 3)) for _ in range(3))
    free = SullivanModel.free(
        [("x1", 2), ("x2", 2), ("x3", 4), ("y1", 5), ("y2", 3), ("y3", 7)]
    )
    x1, x2, x3 = (free.gen(g) for g in ("x1", "x2", "x3"))
    return free.with_differentials({
        "y1": x1 ** 3 + a * x1 ** 2 * x2 + b * x1 * x3,
        "y2": x2 ** 2 + c * x3,
        "y3": x3 ** 2,
    })


def seeded_wide_pure(seed):
    """d(y1) = x1^3 + a*x1^2*x2 + b*x1*x5 + c*x2*x3*x4, d(y2) = x2^2 + e*x2*x3
    + f*x5, d(y3) = x3^2 + g*x3*x4 + h*x4^2, d(y4) = x4^2 + k*x5, d(y5) = x5^2
    with |x1| = .. = |x4| = 2, |x5| = 4 and seeded nonzero coefficients.  As
    in seeded_square_pure, each d(y_i) leads with x_i^(power) under lex order
    and the leads are pairwise coprime, so H = Q[x]/(d(y)) has Poincare
    polynomial (1 + t^2 + t^4)(1 + t^2)^3(1 + t^4), formal dimension 14."""
    rng = random.Random(seed)
    a, b, c, e, f, g, h, k = (
        Fraction(rng.choice((-7, -3, -2, 2, 3, 5)), rng.randint(1, 3)) for _ in range(8)
    )
    free = SullivanModel.free(
        [("x1", 2), ("x2", 2), ("x3", 2), ("x4", 2), ("x5", 4),
         ("y1", 5), ("y2", 3), ("y3", 3), ("y4", 3), ("y5", 7)]
    )
    x1, x2, x3, x4, x5 = (free.gen(f"x{i}") for i in range(1, 6))
    return free.with_differentials({
        "y1": x1 ** 3 + a * x1 ** 2 * x2 + b * x1 * x5 + c * x2 * x3 * x4,
        "y2": x2 ** 2 + e * x2 * x3 + f * x5,
        "y3": x3 ** 2 + g * x3 * x4 + h * x4 ** 2,
        "y4": x4 ** 2 + k * x5,
        "y5": x5 ** 2,
    })


def counted(monkeypatch, name):
    """Wrap linalg.<name> so each call is recorded; returns the record."""
    calls = []
    original = getattr(linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, name, counting)
    return calls


class TestFractionFreeBetti:
    @pytest.mark.parametrize("seed", [3, 29])
    def test_betti_table_reads_ranks_without_rref(self, monkeypatch, seed):
        rrefs = counted(monkeypatch, "rref")
        echelons = counted(monkeypatch, "extend_echelon")
        poincare = convolve(convolve([1, 0, 1, 0, 1], [1, 0, 1]), [1, 0, 0, 0, 1])
        assert betti_table(seeded_square_pure(seed), 12).values == tuple(poincare + [0, 0])
        assert not rrefs
        assert echelons

    @pytest.mark.parametrize("seed", [5, 41])
    def test_betti_table_at_benchmark_size(self, seed):
        # coboundary matrices up to 973 x 761 (degree 16 to 17), whose ranks
        # come partly from structural pivots and partly from the core
        model = seeded_wide_pure(seed)
        poincare = convolve(convolve([1, 0, 1, 0, 1], [1, 0, 1]), [1, 0, 1])
        poincare = convolve(convolve(poincare, [1, 0, 1]), [1, 0, 0, 0, 1])
        top = coboundary_matrix(model, 16)
        assert (top.nrows, top.ncols) == (973, 761)
        assert betti_table(model, 16).values == tuple(poincare + [0, 0])


    @pytest.mark.parametrize("seed", [7, 53])
    def test_betti_table_builds_no_coboundary_matrix(self, monkeypatch, seed):
        """Read in ascending degree, each Betti number ranks d_k on the
        columns outside the row basis of d_(k-1) alone: no full matrix is
        built or looked up, and in the top degree 395 of 761 columns are
        assembled."""
        assembled = []
        original = cohomology.coboundary_columns

        def recording(model, k, positions):
            positions = list(positions)
            assembled.append((k, len(positions)))
            return original(model, k, positions)

        poincare = convolve(convolve([1, 0, 1, 0, 1], [1, 0, 1]), [1, 0, 1])
        poincare = convolve(convolve(poincare, [1, 0, 1]), [1, 0, 0, 0, 1])
        monkeypatch.setattr(cohomology, "coboundary_columns", recording)
        before = coboundary_matrix.cache_info()
        assert betti_table(seeded_wide_pure(seed), 16).values == tuple(poincare + [0, 0])
        after = coboundary_matrix.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert [k for k, _ in assembled] == list(range(17))
        assert assembled[-1] == (16, 395)


class TestBenchmarkWorkerContract:
    def test_coboundary_answers_read_as_monomial_words(self):
        """The path of perfbench/worker.py's run_coboundary: a queried
        monomial built as unit * gen ** e, is_coboundary, then the
        witness's terms or the functional read as [mon.format(), str(c)]
        pairs, keyed by Monomial with Fraction values."""
        model = seeded_square_pure(3)
        want = {
            (("x3", 2),): (True, [["y3", "1"]]),
            (("x2", 2),): (False, [["x2^2", "2/3"], ["x3", "1"]]),
            (("x1", 6),): (True, [
                ["x2*x3*y1", "-6"], ["x2^3*y1", "1"], ["x1*x3*y1", "-3"], ["x1*x2*y3", "16"],
                ["x1*x2*x3*y2", "-3"], ["x1*x2^2*y1", "1"], ["x1^2*y3", "31/9"],
                ["x1^2*x3*y2", "-25/3"], ["x1^2*x2*y1", "1"], ["x1^2*x2^2*y2", "1"],
                ["x1^3*y1", "1"],
            ]),
        }
        for word, (exact, pairs) in want.items():
            x = model.unit()
            for name, e in word:
                x = x * model.gen(name) ** e
            verdict = is_coboundary(x)
            assert verdict.is_coboundary is exact
            if exact:
                assert model.d(verdict.witness) == x
                items = verdict.witness.terms.items()
            else:
                assert pair(verdict.functional, x) != 0
                items = verdict.functional.items()
            assert all(type(mon) is Monomial and type(c) is Fraction for mon, c in items)
            assert [[mon.format(), str(c)] for mon, c in items] == pairs


class TestValidatedOnce:
    """Whether d is a differential is decided once per model: `betti`
    reads the first defect that validation recorded.  Each case builds a
    model of its own, so that no earlier test leaves its Betti numbers in
    the cache."""

    def test_betti_table_validates_a_new_model(self, validations):
        free = SullivanModel.free([("a_lazy2", 2), ("b_lazy3", 3)])
        model = free.with_differentials({"b_lazy3": free.gen("a_lazy2") ** 2})
        assert betti_table(model, 6).values == (1, 0, 1, 0, 0, 0, 0)
        assert validations == [model]

    def test_validate_then_betti_table(self, validations):
        free = SullivanModel.free([("a_once2", 2), ("b_once5", 5)])
        model = free.with_differentials({"b_once5": free.gen("a_once2") ** 3})
        assert algebra.validate_model(model).ok
        assert betti_table(model, 6).values == (1, 0, 1, 0, 1, 0, 0)
        assert validations == [model]
