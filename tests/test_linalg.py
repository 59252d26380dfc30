import random
from fractions import Fraction

import pytest
from test_properties import gauss_jordan_rref, rational_rref

from sullivan import linalg
from sullivan.linalg import RationalMatrix, reduce_into, row_basis, rref


def dot(a, b):
    return sum((v * b[j] for j, v in a.items() if j in b), Fraction(0))


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


def combination(rows, coeffs):
    out: dict[int, Fraction] = {}
    for row, c in zip(rows, coeffs):
        for j, v in row.items():
            out[j] = out.get(j, 0) + c * v
    return {j: v for j, v in out.items() if v}


class TestRref:
    def test_pivots_normalized_and_cleared(self):
        rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 2: Fraction(1)}]
        reduced = rref(rows)
        assert list(reduced) == [0, 1]
        assert rational_rref(reduced) == gauss_jordan_rref(rows, 3)
        # column 0 appears only in its pivot row
        assert 0 not in reduced[1]

    def test_reduce_into_rowspace_member(self):
        rng = random.Random(7)
        rows = random_sparse(rng, 5, 7)
        reduced = rref(rows)
        before = {p: dict(row) for p, row in reduced.items()}
        combo = combination(rows, [Fraction(i + 1, 2) for i in range(len(rows))])
        assert reduce_into(reduced, combo) == {}
        assert reduced == before

    def test_reduce_into_outsider(self):
        reduced = rref([{0: Fraction(1)}])
        res = reduce_into(reduced, {0: Fraction(2), 1: Fraction(1, 3)})
        assert res == {1: 1}
        assert reduced == {0: {0: 1}, 1: {1: 1}}


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
        reduced = rref(rows)
        assert list(reduced) == list(range(n))
        assert all(row == {i: 1} for i, row in reduced.items())
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
        assert m.solve(dict(enumerate([1, 3]))) is None

    def test_dense_rhs_accepted(self):
        m = from_dense([[2, 0], [0, 4]])
        assert m.solve(dict(enumerate([1, 2]))) == [Fraction(1, 2), Fraction(1, 2)]

    def test_zero_rhs(self):
        m = from_dense([[1, 1]])
        assert m.solve({}) == [0, 0]

    @pytest.mark.parametrize("rhs", [{0: 1, 1: 5}, {1: Fraction(5)}, {0: Fraction(1), -1: Fraction(2)}])
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
        assert m.separating_functional({0: 1, 1: 2}) is None
        phi = m.separating_functional({0: 1})
        assert dot(phi, {0: 1}) != 0
        for j in range(2):
            col = {i: r[j] for i, r in enumerate(rows) if j in r}
            assert dot(phi, col) == 0

    def test_left_nullspace_computed_once(self, monkeypatch):
        """The separating functional is a left-kernel row of the reduction
        of [A | I] that solve runs: phi A = 0 and phi rhs != 0, one rref
        for both queries, the same vector on every call.  The last row is
        3 times the first, so the first unit vector is never in the image."""
        calls = counted(monkeypatch, "rref")
        rng = random.Random(300)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
            rows = random_sparse(rng, nrows, ncols)
            rows.append({j: 3 * v for j, v in rows[0].items()})
            m = RationalMatrix(rows, ncols)
            calls.clear()
            assert m.solve({0: Fraction(1)}) is None
            phi = m.separating_functional({0: Fraction(1)})
            assert len(calls) == 1
            assert all(0 <= i < m.nrows for i in phi)
            assert phi.get(0, 0) != 0
            assert matvec(m.transpose().rows, [phi.get(i, 0) for i in range(m.nrows)]) == {}
            assert m.separating_functional({0: Fraction(1)}) is phi
            assert len(calls) == 1

    def test_full_rank_kernel_trivial(self):
        m = from_dense([[1, 0], [0, 1], [5, 7]])
        assert m.nullspace_basis() == []


class TestSingleElimination:
    @pytest.mark.parametrize("solve_first", [True, False])
    def test_queries_share_one_rref(self, monkeypatch, solve_first):
        """However many queries a matrix answers, it runs one elimination
        for solve and the left nullspace (of [A | I]), and one rref per
        nullspace_basis, and leaves its rows as they are."""
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
        kernel = m.nullspace_basis()
        for _ in range(5):
            y_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
            rhs = matvec(rows, y_true)
            y = m.solve(rhs)
            assert matvec(rows, y) == rhs
            m.solve({i: Fraction(1) for i in range(7)})
        m.rank()
        m.separating_functional({0: Fraction(1)})
        assert len(calls) == 2
        assert m.rows == before
        assert m.nullspace_basis() == kernel
        assert len(calls) == 3


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
    def test_matches_dense_oracle_before_and_after_rref(self):
        """rank(), the length of the fraction-free echelon, equals the
        dense oracle whether it runs first, after nullspace_basis() (which
        runs rref) or after solve()."""
        rng = random.Random(1919)
        seen = {"fraction": 0, "zero_row": 0, "repeated": 0, "deficient": 0}
        for _ in range(300):
            rows, ncols = rank_case(rng)
            want = dense_rank_oracle(rows, ncols)
            first = RationalMatrix(rows, ncols)
            assert first.rank() == want
            first.nullspace_basis()
            assert first.rank() == want
            after = RationalMatrix(rows, ncols)
            after.nullspace_basis()
            assert after.rank() == want
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


def ranked_core(monkeypatch, rows, ncols):
    """rank() of the rows, and the core columns it hands to extend_echelon."""
    core = []
    original = linalg.extend_echelon

    def recording(echelon, vectors, dim):
        vectors = list(vectors)
        core.extend(vectors)
        return original(echelon, vectors, dim)

    monkeypatch.setattr(linalg, "extend_echelon", recording)
    return RationalMatrix(rows, ncols).rank(), core


STRUCTURAL_CASES = {
    # column 0 holds only row 0; once row 0 goes, column 1 holds only row 1,
    # then column 2 only row 2; rows 3 and 4 are left, dependent
    "singleton_column_chain": (
        [{0: 1, 1: 2}, {1: 3, 2: 1}, {2: 5, 3: 1}, {3: 1, 4: 2}, {3: 2, 4: 4}], 5, 2,
    ),
    # rows 0 and 1 are multiples of e_0: either one clears column 0, which
    # empties the other and leaves rows 2 and 3 dependent on columns 1 and 2
    "singleton_row_empties_row": (
        [{0: 3}, {0: Fraction(1, 2)}, {0: 1, 1: 1, 2: 1}, {1: 2, 2: 2}], 3, 2,
    ),
    # lower triangular: row 0 is a singleton, and so is each next row once
    # the column before it is cleared
    "triangular_peels_completely": (
        [{j: Fraction(i + 2 * j + 1, j + 1) for j in range(i + 1)} for i in range(6)], 6, 0,
    ),
    # a singleton column (3) and a singleton row (5) peel off, leaving the
    # first three rows, of rank 2
    "deficient_core": (
        [{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9},
         {0: 2, 3: 1}, {4: 2, 5: 1}, {5: 3}],
        6,
        3,
    ),
    # int and Fraction entries in the peeled lines and in the core, whose
    # row 1 is -2 times row 0
    "int_and_fraction": (
        [
            {0: 2, 1: Fraction(1, 3), 2: 1},
            {0: Fraction(-4), 1: Fraction(-2, 3), 2: -2},
            {0: 1, 1: Fraction(1, 2), 2: Fraction(3, 4)},
            {0: 3, 3: Fraction(5, 7)},
            {4: 9},
        ],
        5,
        3,
    ),
    # a stored zero is no nonzero: column 0 must not pivot on row 0
    "stored_zeros": ([{0: Fraction(0), 1: 1}, {1: 2, 2: 0}], 3, 0),
}


class TestStructuralPivots:
    @pytest.mark.parametrize("name", STRUCTURAL_CASES)
    def test_peel_then_core_matches_dense_oracle(self, monkeypatch, name):
        rows, ncols, core_columns = STRUCTURAL_CASES[name]
        rank, core = ranked_core(monkeypatch, rows, ncols)
        assert rank == dense_rank_oracle(rows, ncols)
        assert len(core) == core_columns
        assert all(len(column) >= 2 for column in core)


def columns_of(rows, ncols):
    """The nonzero entries of rows, as sparse columns."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v:
                columns[j][i] = v
    return columns


class TestRowBasis:
    """row_basis names rank-many rows, and they are independent."""

    def check(self, rows, ncols):
        basis = row_basis(columns_of(rows, ncols))
        rank = dense_rank_oracle(rows, ncols)
        assert len(basis) == rank
        assert dense_rank_oracle([rows[i] for i in basis], ncols) == rank

    @pytest.mark.parametrize("name", STRUCTURAL_CASES)
    def test_structural_cases(self, name):
        rows, ncols, _ = STRUCTURAL_CASES[name]
        self.check(rows, ncols)

    def test_random_sparse(self):
        rng = random.Random(2801)
        for _ in range(200):
            self.check(*rank_case(rng))

    def test_no_columns(self):
        assert row_basis([]) == set()
        assert row_basis([{}, {}]) == set()


class TestSeparatingFunctional:
    def test_first_left_kernel_row_not_vanishing_on_rhs(self):
        """On an unsolvable system, a w with w A = 0 and w rhs != 0, the
        same vector on every call; None on a solvable one."""
        rng = random.Random(2802)
        unsolvable = 0
        for _ in range(200):
            rows, ncols = rank_case(rng)
            m = RationalMatrix(rows, ncols)
            rhs = vec_from_dense([rng.randint(-2, 2) for _ in rows])
            phi = m.separating_functional(rhs)
            if m.solve(rhs) is not None:
                assert phi is None
                continue
            unsolvable += 1
            assert dot(phi, rhs) != 0
            assert matvec(m.transpose().rows, [phi.get(i, 0) for i in range(m.nrows)]) == {}
            assert m.separating_functional(rhs) is phi
        assert unsolvable >= 50
