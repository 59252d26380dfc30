import itertools
import random
from fractions import Fraction

import pytest

from sullivan.algebra import SullivanModel, validate_model
from sullivan.cohomology import betti, betti_table
from sullivan.ellipticity import (
    PURE_ATTEMPTS,
    RankVector,
    _drawn_coefficients,
    _even_exponents,
    _pure_shape,
    _relation_columns,
    _walk_pure_models,
    canonical_sorted,
    elliptic_verdicts,
    enumerate_candidates,
    feasibility_failures,
    fh_feasible,
    formal_dimension,
    generators_for,
    pure_witness,
    rank_vector_of_model,
    realizable,
    sac_violation,
)

FEASIBLE = {
    2: ["2:1,3:1"],
    3: ["3:1"],
    4: ["4:1,7:1", "2:1,5:1", "2:2,3:2"],
    5: ["5:1", "3:1,4:1,5:1", "2:1,3:2"],
    6: [
        "6:1,11:1",
        "4:1,9:1",
        "3:2",
        "3:2,5:1,6:1",
        "3:3,4:1",
        "2:1,7:1",
        "2:1,4:1,5:2",
        "2:1,3:1,4:1,7:1",
        "2:2,3:1,5:1",
        "2:3,3:3",
    ],
    7: [
        "7:1",
        "5:1,6:1,7:1",
        "4:1,5:2",
        "3:1,6:1,9:1",
        "3:1,4:1,7:1",
        "3:4,6:1",
        "2:1,3:1,5:1",
        "2:1,3:2,4:1,5:1",
        "2:2,3:3",
    ],
}

REALIZED = {
    2: ["2:1,3:1"],
    3: ["3:1"],
    4: ["4:1,7:1", "2:1,5:1", "2:2,3:2"],
    5: ["5:1", "2:1,3:2"],
    6: ["6:1,11:1", "3:2", "2:1,7:1", "2:1,3:1,4:1,7:1", "2:2,3:1,5:1", "2:3,3:3"],
    7: ["7:1", "3:1,4:1,7:1", "2:1,3:1,5:1", "2:2,3:3"],
}


def assert_elliptic_profile(model, n, top):
    """No cohomology in (n, top] and a single top class in degree n."""
    table = betti_table(model, top)
    assert table[n] == 1, (model, n)
    assert not any(table[k] for k in range(n + 1, top + 1)), (model, n, top)


def assert_certified_pure(model, f):
    """Checks of a realized pure model that share nothing with the walk:
    a valid minimal model on f, dx = 0 on the evens, each dy even-only,
    and Betti numbers vanishing on (n, n+e] with betti[n] == 1."""
    assert validate_model(model).ok, f
    assert rank_vector_of_model(model) == f
    for g in model.generators:
        dg = model.d_of_generator(g.name)
        assert not dg or g.is_odd
        assert all(not any(model.generator(x).is_odd for x, _ in m.exps) for m in dg.terms)
    n = formal_dimension(f)
    e = max((d for d in f.support if d % 2 == 0), default=0)
    assert_elliptic_profile(model, n, n + e)


class TestRankVector:
    def test_parse_roundtrip(self):
        f = RankVector.parse("3:2, 2:1")
        assert f.to_string() == "2:1,3:2"
        assert RankVector.parse(f.to_string()) == f

    def test_parse_empty(self):
        assert RankVector.parse("") == RankVector(())

    def test_parse_rejects_repeat(self):
        with pytest.raises(ValueError):
            RankVector.parse("2:1,2:2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            RankVector.parse("2-1")

    def test_of_drops_zeros(self):
        assert RankVector.of({2: 1, 3: 0}) == RankVector(((2, 1),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RankVector(((3, 1), (2, 1)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RankVector(((0, 1),))
        with pytest.raises(ValueError):
            RankVector(((2, -1),))

    def test_totals(self):
        f = RankVector.parse("2:2,3:1,5:1")
        assert f.total() == 4
        assert f.total("odd") == 2 and f.total("even") == 2
        assert f.weighted("odd") == 8 and f.weighted("even") == 4

    def test_padded(self):
        assert RankVector.parse("2:1,5:1").padded(6) == (0, 1, 0, 0, 1, 0)

    def test_support_and_get(self):
        f = RankVector.parse("2:1,5:1")
        assert f.support == (2, 5)
        assert f.get(5) == 1 and f.get(4) == 0


class TestFormalDimension:
    @pytest.mark.parametrize(
        "text,n",
        [
            ("1:1,2:1,9:1", 9),
            ("2:1,3:1", 2),
            ("3:1", 3),
            ("2:2,3:1,5:1", 6),
            ("2:1,7:1", 6),
            ("2:2,3:3", 7),
            ("", 0),
        ],
    )
    def test_values(self, text, n):
        assert formal_dimension(RankVector.parse(text)) == n

    def test_degree_one_counts_fully(self):
        # odd degree 1 contributes its degree, same as any other odd degree
        assert formal_dimension(RankVector.parse("1:2")) == 2


class TestFeasibility:
    def test_wrong_dimension_reported(self):
        fails = feasibility_failures(RankVector.parse("3:1"), 5)
        assert any("formal dimension" in s for s in fails)

    def test_count_imbalance_reported(self):
        f = RankVector.parse("2:3,3:1")
        fails = feasibility_failures(f, formal_dimension(f))
        assert any("even count" in s for s in fails)

    def test_weighted_bounds_reported(self):
        fails = feasibility_failures(RankVector.parse("3:1,5:1,7:1"), 7)
        assert any("odd degree sum" in s for s in fails)
        f2 = RankVector.parse("2:3,3:2")
        fails2 = feasibility_failures(f2, formal_dimension(f2))
        assert any("even degree sum" in s for s in fails2)

    def test_good_vector_clean(self):
        assert fh_feasible(RankVector.parse("2:1,3:1"), 2)
        assert feasibility_failures(RankVector.parse("2:1,3:1"), 2) == []


class TestEnumeration:
    @pytest.mark.parametrize("n", sorted(FEASIBLE))
    def test_frozen_lists(self, n):
        got = [f.to_string() for f in enumerate_candidates(n)]
        assert got == FEASIBLE[n]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_brute_force(self, n):
        degrees = list(range(2, 2 * n))
        ranges = [
            range(0, ((2 * n - 1) if i % 2 else n) // i + 1) for i in degrees
        ]
        brute = set()
        for combo in itertools.product(*ranges):
            f = RankVector.of(dict(zip(degrees, combo)))
            if fh_feasible(f, n):
                brute.add(f)
        assert set(enumerate_candidates(n)) == brute

    def test_empty_for_tiny_n(self):
        assert enumerate_candidates(1) == []
        assert enumerate_candidates(0) == []

    def test_canonical_order_is_padded_lex(self):
        vs = enumerate_candidates(6)
        keys = [v.padded(11) for v in vs]
        assert keys == sorted(keys)

    def test_canonical_sorted_helper(self):
        a = RankVector.parse("2:1,5:1")
        b = RankVector.parse("4:1,7:1")
        assert canonical_sorted([a, b]) == [b, a]


class TestArithmeticCondition:
    @pytest.mark.parametrize(
        "text, failing",
        [
            # no odd y has |y|+1 in {8, 12, ...}
            ("3:1,4:1,5:1", (4,)),
            ("2:3,3:3", None),
            # no even generators: nothing to check
            ("3:1,5:1", None),
            ("7:1", None),
            # |S| counts generators, not degrees: two degree-2 evens, one relation
            ("2:2,3:1", (2,)),
            # each degree alone has its relation; together they need two
            ("2:1,4:1,7:1", (2, 4)),
            ("2:1,3:2,4:1,5:1", (4,)),
            ("3:2,5:1,6:1", (6,)),
        ],
    )
    def test_hand_checked(self, text, failing):
        assert sac_violation(RankVector.parse(text)) == failing

    @pytest.mark.parametrize("coeffs", [(-1, 0, 1), (-1, 0, 1, 2), (-2, -1, 0, 1, 2)])
    def test_agrees_with_search(self, coeffs):
        """On every candidate of dims 2..7, the condition holds exactly
        when the witness search realizes the vector."""
        for n in range(2, 8):
            for f in enumerate_candidates(n):
                v = realizable(f, coeff_set=coeffs)
                assert (sac_violation(f) is None) == (v.status == "realized"), (f, v.status)

    def test_dim_8(self):
        """13 of the 30 dim-8 candidates meet the condition; each of the
        other 17 is unrealizable, with a note naming its failing degrees."""
        candidates = enumerate_candidates(8)
        failing = [f for f in candidates if sac_violation(f) is not None]
        assert (len(candidates), len(failing)) == (30, 17)
        for f in failing:
            v = realizable(f)
            assert (v.status, v.examined, v.model) == ("unrealizable", 0, None), f
            assert v.note == f"fails the arithmetic condition on even degrees {sac_violation(f)}"

    def test_verdicts_skip_failing_candidates(self):
        # {3:1, 4:1, 5:1} is never searched
        got = [(str(v.f), v.status) for v in elliptic_verdicts(5)]
        assert got == [("{5:1}", "realized"), ("{2:1, 3:2}", "realized")]


class TestRealizability:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_survivors_match(self, n):
        got = [
            f.to_string()
            for f in enumerate_candidates(n)
            if realizable(f).status == "realized"
        ]
        assert got == REALIZED[n]

    def test_witness_is_valid_and_matches(self):
        f = RankVector.parse("2:2,3:1,5:1")
        v = realizable(f)
        assert v.status == "realized"
        assert validate_model(v.model).ok
        assert rank_vector_of_model(v.model) == f
        n = formal_dimension(f)
        assert betti(v.model, n) > 0
        assert all(betti(v.model, k) == 0 for k in range(n + 1, 2 * n + 3))

    def test_unrealizable_notes_coefficients(self):
        # SAC holds, but the zero box has no pure model with finite cohomology
        v = realizable(RankVector.parse("2:1,3:1"), coeff_set=(0,))
        assert (v.status, v.examined) == ("unrealizable", 1)
        assert v.note == "no pure model with coefficients from ['0'] has finite cohomology"

    def test_budget_inconclusive(self):
        v = realizable(RankVector.parse("2:1,3:1"), coeff_set=(0,), max_models=0)
        assert (v.status, v.examined) == ("inconclusive", 0)
        assert "budget" in v.note
        # the (0, 1) walk on {2:3, 3:3} builds 392 pure models, the last realized
        f = RankVector.parse("2:3,3:3")
        box = (Fraction(0), Fraction(1))
        short = _walk_pure_models(f, box, max_models=391)
        assert (short.status, short.examined, short.model) == ("inconclusive", 391, None)
        enough = _walk_pure_models(f, box, max_models=392)
        assert (enough.status, enough.examined) == ("realized", 392)

    def test_repeated_coefficients_dropped(self):
        f = RankVector.parse("2:3,3:3")
        plain = realizable(f, coeff_set=(0, 1))
        repeated = realizable(f, coeff_set=(0, 1, 1, 0))
        assert (repeated.status, repeated.examined, repeated.model, repeated.note) == (
            plain.status, plain.examined, plain.model, plain.note
        )
        assert plain.status == "realized"

    @pytest.mark.parametrize(
        "given, ascending",
        [((1, 0), (0, 1)), ((0, Fraction(1, 2), -3), (-3, 0, Fraction(1, 2)))],
    )
    def test_coefficient_order_ignored(self, given, ascending):
        f = RankVector.parse("2:3,3:3")
        a = realizable(f, coeff_set=given)
        b = realizable(f, coeff_set=ascending)
        assert (a.status, a.examined, a.model, a.note) == (b.status, b.examined, b.model, b.note)
        assert a.status == "realized"

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            realizable(RankVector.parse("1:1,2:1"))

    def test_generator_naming(self):
        gens = generators_for(RankVector.parse("2:2,5:1"))
        assert [g.name for g in gens] == ["g2_1", "g2_2", "g5"]
        assert [g.degree for g in gens] == [2, 2, 5]

    def test_odd_sphere_realized_without_differential(self):
        v = realizable(RankVector.parse("7:1"))
        assert v.status == "realized"
        assert v.model.diff == ()

    def test_point_realized_by_empty_model(self):
        # the point is elliptic of formal dimension 0, so no box proves it
        # unrealizable
        v = realizable(RankVector(()))
        assert (v.status, v.model.generators) == ("realized", ())
        assert betti_table(v.model, 0).values == (1,)

    @pytest.mark.parametrize("coeffs", [(-1, 0, 1), (0, 1), (-1, 0, 1, 2)])
    def test_walk_agrees_with_sac(self, coeffs):
        """The walk alone, without SAC or the pure-witness attempts,
        realizes exactly the candidates of dims 2..7 meeting SAC, and each
        model it returns passes the independent checks."""
        box = tuple(map(Fraction, coeffs))
        for n in range(2, 8):
            for f in enumerate_candidates(n):
                v = _walk_pure_models(f, box)
                assert (v.status == "realized") == (sac_violation(f) is None), (f, v.status)
                assert v.status in ("realized", "unrealizable")
                if v.model is not None:
                    assert_certified_pure(v.model, f)

    @pytest.mark.parametrize("text", ["2:3,3:3", "2:1,4:1,5:1,7:1", "2:2,5:2", "2:3,3:2,5:1"])
    def test_zero_one_fallback_realized(self, text):
        """These SAC vectors of dims 2..9 are realized under (0, 1) by the
        walk alone, as the box search realized them."""
        f = RankVector.parse(text)
        v = _walk_pure_models(f, (Fraction(0), Fraction(1)))
        assert v.status == "realized" and v.examined > 0
        assert_certified_pure(v.model, f)

    def test_zero_box_unrealizable(self):
        """In the zero box no SAC vector of dims 2..9 has a pure witness, and
        the walk proves each unrealizable, as the box search found none."""
        decided = 0
        for n in range(2, 10):
            for f in enumerate_candidates(n):
                if sac_violation(f) is None and pure_witness(f, (0,)) is None:
                    assert realizable(f, coeff_set=(0,)).status == "unrealizable", f
                    decided += 1
        assert decided == 32


class TestPureWitness:
    def test_certificate_exactly_on_sac_vectors(self):
        """Every candidate of dims 2..11 meeting SAC gets a certified pure
        witness under (-1, 0, 1), within three attempts; no candidate
        failing SAC ever gets one, as a sound certificate implies SAC."""
        attempts = []
        for n in range(2, 12):
            for f in enumerate_candidates(n):
                found = pure_witness(f)
                assert (found is not None) == (sac_violation(f) is None), f
                if found is not None:
                    attempts.append(found[1])
        assert len(attempts) == 78
        assert max(attempts) == 2 < PURE_ATTEMPTS

    @pytest.mark.parametrize("coeffs", [(0, 1), (-1, 0, 1, 2)])
    def test_attempts_draw_distinct_streams(self, coeffs):
        """At every generator index the attempts draw pairwise-distinct
        coefficient streams, also in boxes of two and four values."""
        box = tuple(map(Fraction, coeffs))
        for index in (0, 1, 2, 3, 5, 8, 17, 1000):
            streams = {
                tuple(itertools.islice(_drawn_coefficients(box, attempt, index), 40))
                for attempt in range(PURE_ATTEMPTS)
            }
            assert len(streams) == PURE_ATTEMPTS, index

    def test_zero_one_witness_without_walk(self):
        """{2:3, 3:3, 4:1, 7:1} (dim 10) gets a pure witness under (0, 1),
        so the walk, which runs past ten minutes on it, is not reached."""
        f = RankVector.parse("2:3,3:3,4:1,7:1")
        model, _ = pure_witness(f, (0, 1))
        assert_certified_pure(model, f)
        v = realizable(f, coeff_set=(0, 1))
        assert (v.status, v.examined) == ("realized", 0)

    @pytest.mark.parametrize("coeffs", [(-1, 0, 1), (-1, 0, 1, 2), (-2, -1, 0, 1, 2)])
    def test_witnesses_are_elliptic(self, coeffs):
        """Dims 2..7: each witness is a pure minimal model on f whose Betti
        numbers vanish above n through 2n+2, with a top class in degree n."""
        for n in range(2, 8):
            for f in enumerate_candidates(n):
                if sac_violation(f) is not None:
                    continue
                model, _ = pure_witness(f, coeffs)
                assert_certified_pure(model, f)
                assert_elliptic_profile(model, n, 2 * n + 2)

    def test_dim_8_witnesses_profile(self):
        """The 13 dim-8 witnesses have no cohomology in (8, 8+e], e the
        largest even generator degree, and a top class in degree 8."""
        found = 0
        for f in enumerate_candidates(8):
            if sac_violation(f) is None:
                model, _ = pure_witness(f)
                e = max((d for d in f.support if d % 2 == 0), default=0)
                assert_elliptic_profile(model, 8, 8 + e)
                found += 1
        assert found == 13

    def test_deterministic_and_order_free(self):
        f = RankVector.parse("2:3,3:3")
        a = pure_witness(f, (1, 0, -1))
        assert a == pure_witness(f, (-1, 0, 1)) == pure_witness(f, (-1, 0, 1, 1))

    def test_zero_box_has_no_witness_for_evens(self):
        assert pure_witness(RankVector.parse("2:1,3:1"), (0,)) is None
        model, attempt = pure_witness(RankVector.parse("3:2"), (0,))
        assert model.diff == () and attempt == 0

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            pure_witness(RankVector.parse("1:1,2:1"))

    def test_slices_are_the_even_degrees_above_n(self):
        """One slice per even degree k in (n, n+e], each as wide as the
        even monomials of degree k; a window starting higher is also a
        sound certificate, only larger, so no verdict would show it."""
        for n in range(2, 8):
            for f in enumerate_candidates(n):
                free, odds, _, slices = _pure_shape(f)
                e = max((d for d in f.support if d % 2 == 0), default=0)
                want = [
                    sum(not any(free.generator(x).is_odd for x, _ in m.exps) for m in free.basis_of_degree(k))
                    for k in range(n + 1, n + e + 1)
                    if k % 2 == 0
                ]
                assert [len(top) for top, _ in slices] == want, f
                assert all(len(shifts) == len(odds) for _, shifts in slices)


class TestVerdicts:
    def test_pure_verdict_contract(self):
        for v in elliptic_verdicts(6):
            n = formal_dimension(v.f)
            assert (v.status, v.examined) == ("realized", 0)
            assert "pure witness" in v.note
            assert betti(v.model, n) == 1

    def test_falls_back_to_search(self):
        # no pure witness exists in the zero box once there is an even
        # generator, so the walk decides, as realizable alone would
        got = list(elliptic_verdicts(2, coeff_set=(0,)))
        want = realizable(RankVector.parse("2:1,3:1"), coeff_set=(0,))
        assert [(v.f, v.status, v.examined, v.note) for v in got] == [
            (want.f, "unrealizable", want.examined, want.note)
        ]


class TestRelationColumns:
    def test_against_element_products(self):
        """The prune's columns m*q equal the products of Elements over the
        even monomials, coefficient for coefficient, for random fractional
        values of every odd generator of the candidates in dims 2..7 and a
        range of target degrees."""
        rng = random.Random(808)
        fractions = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), 2, -1, 3)
        checked = mixed = 0
        for n in range(2, 8):
            for f in enumerate_candidates(n):
                free = SullivanModel.free(generators_for(f))

                def even_basis(k):
                    return [
                        m for m in free.basis_of_degree(k)
                        if not any(free.generator(name).is_odd for name, _ in m.exps)
                    ]

                for g in free.generators:
                    basis = free.basis_of_degree(g.degree + 1)
                    if not g.is_odd or not basis:
                        continue
                    for _ in range(30):
                        picks = rng.sample(list(basis), min(len(basis), rng.randint(1, 4)))
                        value = sum(
                            (Fraction(rng.choice(fractions)) * free.word(m.exps) for m in picks),
                            free.zero(),
                        )
                        k = g.degree + 1 + 2 * rng.randint(0, 3)
                        top_basis = even_basis(k)
                        top = {vec: i for i, vec in enumerate(_even_exponents(free, k))}
                        shifts = _even_exponents(free, k - g.degree - 1)
                        assert len(top) == len(top_basis)
                        assert len(shifts) == len(even_basis(k - g.degree - 1))
                        q = sum(
                            (
                                c * free.word(m.exps) for m, c in value.terms.items()
                                if not any(free.generator(name).is_odd for name, _ in m.exps)
                            ),
                            free.zero(),
                        )
                        got = list(_relation_columns(free, top, value, shifts))
                        want = [
                            {
                                top_basis.index(mon): c
                                for mon, c in (free.word(m.exps) * q).terms.items()
                            }
                            for m in even_basis(k - g.degree - 1)
                        ]
                        assert got == want
                        mixed += len({c.denominator for c in q.terms.values()}) > 1
                        checked += 1
        assert checked >= 1000 and mixed >= 100, (checked, mixed)
