import random
from fractions import Fraction

import pytest

from sullivan import linalg
from sullivan.linalg import RationalMatrix, reduce_against, rref, vec_add_scaled, vec_dot


def vec_from_dense(xs):
    return {i: Fraction(x) for i, x in enumerate(xs) if Fraction(x)}


def from_dense(rows):
    """A RationalMatrix of dense rows, as wide as the longest."""
    return RationalMatrix([vec_from_dense(r) for r in rows], max((len(r) for r in rows), default=0))


def dense_rank_oracle(rows, ncols):
    """Plain dense elimination, no pivoting tricks."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rk = 0
    col = 0
    while col < ncols and rk < len(m):
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][col]:
                f = m[i][col] / m[rk][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
        col += 1
    return rk


def random_sparse(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append({j: v for j, v in row.items() if v})
    return rows


def matvec(rows, y):
    return {
        i: s
        for i, row in enumerate(rows)
        if (s := sum((v * y[j] for j, v in row.items()), Fraction(0)))
    }


def counted(monkeypatch, name):
    """Wrap linalg.<name> so each call is recorded; returns the record."""
    calls = []
    original = getattr(linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, name, counting)
    return calls


class TestVectors:
    def test_from_dense_drops_zeros(self):
        assert vec_from_dense([0, 1, 0, Fraction(2, 3)]) == {1: 1, 3: Fraction(2, 3)}

    def test_add_scaled(self):
        a = {0: Fraction(1), 1: Fraction(2)}
        vec_add_scaled(a, {1: Fraction(-1), 2: Fraction(3)}, Fraction(2))
        assert a == {0: 1, 2: 6}

    def test_dot(self):
        assert vec_dot({0: Fraction(2), 3: Fraction(1)}, {0: Fraction(3)}) == 6
        assert vec_dot({}, {0: Fraction(1)}) == 0


class TestRank:
    def test_identity(self):
        m = from_dense([[1, 0], [0, 1]])
        assert m.rank() == 2

    def test_dependent_rows(self):
        m = from_dense([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        assert m.rank() == 2

    def test_hilbert_is_nonsingular(self):
        # floating point famously botches this one; exact arithmetic must not
        n = 7
        rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert from_dense(rows).rank() == n

    def test_zero_matrix(self):
        assert RationalMatrix([{}, {}], 4).rank() == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_oracle(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_sparse(rng, nrows, ncols)
        assert RationalMatrix(rows, ncols).rank() == dense_rank_oracle(rows, ncols)

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(99)
        rows = random_sparse(rng, 6, 9)
        m = RationalMatrix(rows, 9)
        assert m.rank() == m.transpose().rank()


class TestRref:
    def test_pivots_normalized_and_cleared(self):
        rows, pivots = rref([{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 2: Fraction(1)}])
        assert pivots == [0, 1]
        for row, p in zip(rows, pivots):
            assert row[p] == 1
        # column 0 appears only in its pivot row
        assert all(0 not in row for row in rows[1:])

    def test_reduce_against_rowspace_member(self):
        rng = random.Random(7)
        rows = random_sparse(rng, 5, 7)
        reduced, pivots = rref(rows)
        combo: dict[int, Fraction] = {}
        for i, r in enumerate(rows):
            vec_add_scaled(combo, r, Fraction(i + 1, 2))
        assert reduce_against(dict(zip(pivots, reduced)), combo) == {}

    def test_reduce_against_outsider(self):
        reduced, pivots = rref([{0: Fraction(1)}])
        res = reduce_against(dict(zip(pivots, reduced)), {0: Fraction(2), 1: Fraction(1)})
        assert res == {1: 1}


class ScanCountingRow(dict):
    """A sparse row that counts the scans made of it: min(row) iterates it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestRrefPivotSearch:
    def test_pivot_search_scans_each_row_a_bounded_number_of_times(self):
        # shuffled bidiagonal rows {i: 2, i+1: -1}: each step has one row
        # leading at its pivot column, so finding the pivots needs about
        # one scan per row; rescanning every pending row per step takes
        # about n*n/2
        n = 400
        rows = [ScanCountingRow({i: Fraction(2), i + 1: Fraction(-1)}) for i in range(n - 1)]
        rows.append(ScanCountingRow({n - 1: Fraction(2)}))
        random.Random(400).shuffle(rows)
        reduced, pivots = rref(rows)
        assert pivots == list(range(n))
        assert all(row == {i: 1} for i, row in enumerate(reduced))
        assert sum(r.scans for r in rows) <= 3 * n


class TestSolve:
    @pytest.mark.parametrize("seed", range(15))
    def test_consistent_system(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_sparse(rng, nrows, ncols)
        y_true = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = matvec(rows, y_true)
        m = RationalMatrix(rows, ncols)
        y = m.solve(rhs)
        assert y is not None
        assert matvec(rows, y) == rhs

    def test_inconsistent_system(self):
        m = from_dense([[1, 1], [2, 2]])
        assert m.solve([1, 3]) is None

    def test_dense_rhs_accepted(self):
        m = from_dense([[2, 0], [0, 4]])
        assert m.solve([1, 2]) == [Fraction(1, 2), Fraction(1, 2)]

    def test_zero_rhs(self):
        m = from_dense([[1, 1]])
        assert m.solve({}) == [0, 0]

    @pytest.mark.parametrize("rhs", [[1, 5], {1: Fraction(5)}, {0: Fraction(1), -1: Fraction(2)}])
    def test_out_of_range_rhs_rejected(self, rhs):
        # dropping the entry outside the single row would "solve" [1, 0] y = 1
        m = from_dense([[1, 0]])
        with pytest.raises(ValueError, match="outside range"):
            m.solve(rhs)


class TestNullspace:
    @pytest.mark.parametrize("seed", range(15))
    def test_basis_spans_kernel(self, seed):
        rng = random.Random(100 + seed)
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_sparse(rng, nrows, ncols)
        m = RationalMatrix(rows, ncols)
        basis = m.nullspace_basis()
        assert len(basis) == ncols - m.rank()
        for v in basis:
            dense = [v.get(j, Fraction(0)) for j in range(ncols)]
            assert matvec(rows, dense) == {}

    def test_left_nullspace_annihilates_rows(self):
        rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
        m = RationalMatrix(rows, 2)
        basis = m.left_nullspace_basis()
        assert len(basis) == 1
        phi = basis[0]
        for j in range(2):
            col = {i: r[j] for i, r in enumerate(rows) if j in r}
            assert vec_dot(phi, col) == 0

    def test_left_nullspace_computed_once(self):
        m = from_dense([[1, 2], [2, 4], [0, 1]])
        basis = m.left_nullspace_basis()
        assert basis == m.transpose().nullspace_basis()
        assert m.left_nullspace_basis() is basis

    def test_full_rank_kernel_trivial(self):
        m = from_dense([[1, 0], [0, 1], [5, 7]])
        assert m.nullspace_basis() == []


class TestSingleElimination:
    @pytest.mark.parametrize("solve_first", [True, False])
    def test_queries_share_one_rref(self, monkeypatch, solve_first):
        """However many queries a matrix answers, it runs one elimination
        for solve (of [A | I]) and one for rref and the nullspace, and
        leaves its rows as they are."""
        calls = counted(monkeypatch, "rref")
        rng = random.Random(11)
        rows = random_sparse(rng, 7, 6)
        rows[2] = {j: 2 * v for j, v in rows[0].items()}
        m = RationalMatrix(rows, 6)
        before = [dict(r) for r in m.rows]
        if solve_first:
            m.solve({0: Fraction(1)})
        else:
            m.rank()
        reduced, pivots = m.rref()
        snapshot = ([dict(r) for r in reduced], list(pivots))
        for _ in range(5):
            y_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
            rhs = matvec(rows, y_true)
            y = m.solve(rhs)
            assert matvec(rows, y) == rhs
            m.solve({i: Fraction(1) for i in range(7)})
        m.rank()
        m.nullspace_basis()
        assert len(calls) == 2
        assert m.rows == before
        assert m.rref() == snapshot


def rank_case(rng):
    """Sparse rows with fractional entries, plus zero rows and rows that
    repeat earlier ones, some rescaled; returns them and the column count."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 8)
    rows = random_sparse(rng, nrows, ncols, density=rng.choice((0.2, 0.4, 0.7)))
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.3:
            row = {}
        else:
            c = Fraction(1) if kind < 0.6 else Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
            row = {j: c * v for j, v in rng.choice(rows).items()}
        rows.insert(rng.randint(0, len(rows)), row)
    return rows, ncols


class TestFractionFreeRank:
    def test_matches_dense_oracle_before_and_after_rref(self, monkeypatch):
        """rank() equals the dense oracle whether it runs first (the
        fraction-free echelon), after rref() (the pivot count, with no
        further elimination) or after solve()."""
        echelons = counted(monkeypatch, "extend_echelon")
        rng = random.Random(1919)
        seen = {"fraction": 0, "zero_row": 0, "repeated": 0, "deficient": 0}
        for _ in range(300):
            rows, ncols = rank_case(rng)
            want = dense_rank_oracle(rows, ncols)
            first = RationalMatrix(rows, ncols)
            assert first.rank() == want
            first.rref()
            assert first.rank() == want
            after = RationalMatrix(rows, ncols)
            after.rref()
            calls = len(echelons)
            assert after.rank() == want
            assert len(echelons) == calls
            solved = RationalMatrix(rows, ncols)
            solved.solve({0: Fraction(1)})
            assert solved.rank() == want
            seen["fraction"] += any(v.denominator > 1 for r in rows for v in r.values())
            seen["zero_row"] += any(not r for r in rows)
            seen["repeated"] += len({frozenset(r.items()) for r in rows}) < len(rows)
            seen["deficient"] += want < min(len(rows), ncols)
        assert min(seen.values()) >= 50, seen

    def test_rank_leaves_rows_and_computes_once(self, monkeypatch):
        echelons = counted(monkeypatch, "extend_echelon")
        rrefs = counted(monkeypatch, "rref")
        rows = [
            {0: Fraction(1, 2), 2: Fraction(-3)},
            {0: Fraction(1), 2: Fraction(-6)},
            {},
            {1: Fraction(2, 3), 2: Fraction(1)},
        ]
        m = RationalMatrix(rows, 3)
        before = [dict(r) for r in m.rows]
        assert m.rank() == 2
        assert m.rank() == 2
        assert (len(echelons), len(rrefs)) == (1, 0)
        assert m.rows == before
        assert all(type(v) is Fraction for r in m.rows for v in r.values())
