import pickle
from fractions import Fraction

import pytest

from sullivan.algebra import (
    GeneratorSpec,
    Monomial,
    SullivanModel,
    format_terms,
    validate_model,
)


def cp2():
    free = SullivanModel.free([("x2", 2), ("x5", 5)])
    return free.with_differentials({"x5": free.gen("x2") ** 3})


def sphere2():
    free = SullivanModel.free([("y2", 2), ("y3", 3)])
    return free.with_differentials({"y3": free.gen("y2") ** 2})


class TestGeneratorSpec:
    def test_parity(self):
        assert GeneratorSpec("x", 3).is_odd
        assert not GeneratorSpec("x", 2).is_odd

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            GeneratorSpec("x", 0)

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            GeneratorSpec("2x", 2)

    def test_rejects_bad_origin(self):
        with pytest.raises(ValueError):
            GeneratorSpec("x", 2, origin="total")


class TestNormalize:
    """A word of generators multiplied in order: its canonical monomial
    with the Koszul sign, or 0 when an odd generator repeats."""

    def setup_method(self):
        self.m = SullivanModel.free(
            [("z1", 1), ("a3", 3), ("b3", 3), ("x2", 2)]
        )

    def word(self, *names):
        out = self.m.unit()
        for name in names:
            out = out * self.m.gen(name)
        return out

    def test_identity_word(self):
        assert self.word("z1", "a3") == self.m.word((("z1", 1), ("a3", 1)))

    def test_odd_swap_flips_sign(self):
        assert self.word("b3", "a3") == -self.m.word((("a3", 1), ("b3", 1)))

    def test_even_moves_freely(self):
        assert self.word("x2", "z1") == self.m.word((("z1", 1), ("x2", 1)))

    def test_three_odd_cycle(self):
        # (b,a), (b,z), (a,z) are out of declaration order: 3 pairs
        want = self.m.word((("z1", 1), ("a3", 1), ("b3", 1)))
        assert self.word("b3", "a3", "z1") == -want
        assert self.m.word((("b3", 1), ("a3", 1), ("z1", 1))) == -want

    def test_odd_square_dies(self):
        assert self.word("a3", "a3") == self.m.zero()
        assert self.m.gen("a3") ** 2 == self.m.zero()
        assert self.m.word((("a3", 1), ("x2", 2), ("a3", 1))) == self.m.zero()
        assert self.m.word((("a3", 2),)) == self.m.zero()

    def test_even_power_accumulates(self):
        want = self.m.word((("x2", 3),))
        assert self.word("x2", "x2", "x2") == want == self.m.word((("x2", 1), ("x2", 2)))
        assert self.m.gen("x2") ** 3 == want

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            self.m.gen("nope")
        with pytest.raises(ValueError, match="power 0 of x2 is below 1"):
            self.m.word((("x2", 0),))


class TestProducts:
    def test_odd_anticommute(self):
        m = SullivanModel.free([("a3", 3), ("b3", 3)])
        a, b = m.gen("a3"), m.gen("b3")
        assert b * a == -(a * b)
        assert (a * b) * (a * b) == m.zero()

    def test_odd_square_zero(self):
        m = SullivanModel.free([("a3", 3)])
        assert m.gen("a3") * m.gen("a3") == m.zero()

    def test_even_commute(self):
        m = SullivanModel.free([("z1", 1), ("x2", 2)])
        z, x = m.gen("z1"), m.gen("x2")
        assert x * z == z * x

    def test_graded_commutativity_sample(self):
        m = SullivanModel.free([("z1", 1), ("x2", 2), ("a3", 3), ("x4", 4)])
        for na in m.generator_names:
            for nb in m.generator_names:
                a, b = m.gen(na), m.gen(nb)
                sign = (-1) ** (m.degree_of(na) * m.degree_of(nb))
                assert a * b == sign * (b * a)

    def test_scalar_arithmetic(self):
        m = SullivanModel.free([("x2", 2)])
        x = m.gen("x2")
        e = Fraction(3, 2) * x - x
        assert e == Fraction(1, 2) * x
        assert (e - e).is_zero()

    def test_pow(self):
        m = SullivanModel.free([("x2", 2)])
        assert m.gen("x2") ** 4 == m.word((("x2", 4),))
        assert m.gen("x2") ** 0 == m.unit()

    def test_pow_by_squaring_matches_repeated_products(self):
        # a mixed element: its odd part squares to a nonzero even term
        m = SullivanModel.free([("z1", 1), ("x2", 2), ("a3", 3), ("b3", 3)])
        x = m.gen("x2") + Fraction(1, 2) * m.gen("z1") - m.gen("a3") + 3 * m.gen("x2") * m.gen("b3")
        x = x + m.gen("a3") * m.gen("b3")
        power = m.unit()
        for n in range(9):
            assert x ** n == power
            power = power * x
        assert m.gen("x2") ** 3000 == m.word((("x2", 3000),))

    def test_mixed_model_rejected(self):
        a = SullivanModel.free([("x2", 2)])
        b = SullivanModel.free([("y2", 2)])
        with pytest.raises(ValueError):
            a.gen("x2") * b.gen("y2")

    def test_unhashable(self):
        m = SullivanModel.free([("x2", 2)])
        with pytest.raises(TypeError):
            hash(m.gen("x2"))


class TestDifferential:
    def test_on_generator(self):
        m = cp2()
        x2 = m.gen("x2")
        assert m.d("x5") == x2 ** 3
        assert m.d("x2").is_zero()

    def test_leibniz_product(self):
        m = cp2()
        # d(x2*x5) = x2 * d(x5), x2 closed and even
        assert m.d(m.gen("x2") * m.gen("x5")) == m.gen("x2") ** 4

    def test_leibniz_sign_on_odd_prefix(self):
        m = sphere2()
        y2, y3 = m.gen("y2"), m.gen("y3")
        # d(y3*y2) = y2^3, no sign from the even tail
        assert (y3 * y2).d() == y2 ** 3
        # d(y3 * y3) = d(0) = 0 consistency
        assert (y3 * y3).d().is_zero()

    def test_leibniz_general(self):
        free = SullivanModel.free([("a2", 2), ("a3", 3), ("b2", 2), ("b5", 5)])
        m = free.with_differentials(
            {"a3": free.gen("a2") ** 2, "b5": free.gen("b2") ** 3}
        )
        x = m.gen("a3")
        y = m.gen("b5")
        lhs = (x * y).d()
        rhs = x.d() * y - x * y.d()  # |a3| odd
        assert lhs == rhs

    def test_d_squared_failure_detected(self):
        free = SullivanModel.free([("x2", 2), ("x3", 3), ("x5", 5)])
        bad = free.with_differentials(
            {"x2": free.gen("x3"), "x5": free.gen("x2") ** 3}
        )
        rep = validate_model(bad, require_minimal=False)
        assert not rep.ok
        assert rep.d_squared_failures == [("x5", "3*x2^2*x3")]

    def test_linearity(self):
        m = cp2()
        x2, x5 = m.gen("x2"), m.gen("x5")
        e = 2 * x5 + Fraction(1, 3) * x2 * x5
        assert m.d(e) == 2 * x2 ** 3 + Fraction(1, 3) * x2 ** 4


class TestBasis:
    def test_frozen_degree5_order(self):
        m = SullivanModel.free(
            [("z1", 1), ("z2", 2), ("x2", 2), ("x5", 5), ("z9", 9)]
        )
        names = [mo.format() for mo in m.basis_of_degree(5)]
        assert names == ["x5", "z1*x2^2", "z1*z2*x2", "z1*z2^2"]

    def test_unit_in_degree_zero(self):
        m = SullivanModel.free([("x2", 2)])
        assert m.basis_of_degree(0) == (Monomial(),)
        assert m.basis_of_degree(-1) == ()

    @pytest.mark.parametrize(
        "k,dim",
        [(0, 1), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1)],
    )
    def test_sphere2_dimensions(self, k, dim):
        # Lambda(y2, y3): one monomial y2^a or y2^a*y3 per degree
        assert sphere2().dimension_of_degree(k) == dim

    def test_exterior_dims(self):
        m = SullivanModel.free([("a3", 3), ("b3", 3)])
        dims = [m.dimension_of_degree(k) for k in range(8)]
        assert dims == [1, 0, 0, 2, 0, 0, 1, 0]

    def test_cache_shared_across_diff_variants(self):
        free = SullivanModel.free([("y2", 2), ("y3", 3)])
        m = free.with_differentials({"y3": free.gen("y2") ** 2})
        assert free.basis_of_degree(6) is m.basis_of_degree(6)


class TestModelHash:
    def test_hash_of_the_fields_kept_on_the_model(self):
        first, second = cp2(), cp2()
        assert first is not second and first == second
        assert "_hash" not in vars(first)  # computed on first use only
        assert hash(first) == hash(second) == hash((first.generators, first.diff))
        assert "_hash" in vars(first)
        assert hash(sphere2()) != hash(first)

    def test_pickle_round_trip_hashes_again(self):
        model = cp2()
        hash(model)
        copy = pickle.loads(pickle.dumps(model))
        # string hashes differ between processes, so none is carried over
        assert "_hash" not in vars(copy)
        assert copy == model and hash(copy) == hash(model)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [cp2, sphere2],
        ids=["projective-plane", "two-sphere"],
    )
    def test_good_models(self, build):
        assert validate_model(build()).ok

    def test_minimality_violation(self):
        # a linear differential term is not decomposable
        free = SullivanModel.free([("u1", 1), ("v2", 2)])
        lin = free.with_differentials({"u1": free.gen("v2")})
        rep = validate_model(lin)
        assert not rep.ok and rep.nonminimal_terms == [("u1", "v2")]
        assert validate_model(lin, require_minimal=False).ok

    def test_degree_mismatch(self):
        free = SullivanModel.free([("x2", 2), ("x7", 7)])
        bad = free.with_differentials({"x7": free.gen("x2") ** 2})
        rep = validate_model(bad)
        assert rep.degree_failures and not rep.ok
        assert "not homogeneous" in rep.summary()

    def test_every_failure_at_once(self):
        """A fractional coefficient, a d*d failure, a degree failure and
        a linear term, reported in generator order within each kind."""
        free = SullivanModel.free([("x2", 2), ("y3", 3), ("z4", 4), ("w5", 5)])
        x2, y3, z4 = free.gen("x2"), free.gen("y3"), free.gen("z4")
        bad = free.with_differentials(
            {"y3": Fraction(1, 2) * x2 ** 2, "z4": x2 * y3, "w5": x2 ** 3 - Fraction(2, 3) * z4}
        )
        rep = validate_model(bad)
        assert not rep.ok
        assert rep.summary() == "\n".join([
            "degree: d(w5) = -2/3*z4 + x2^3 is not homogeneous of degree deg(w5)+1",
            "d*d: d(d(z4)) = 1/2*x2^3 != 0",
            "d*d: d(d(w5)) = -2/3*x2*y3 != 0",
            "minimality: d(w5) has the non-decomposable term z4",
        ])
        relaxed = validate_model(bad, require_minimal=False)
        assert relaxed.nonminimal_terms == [] and relaxed.summary().count("\n") == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SullivanModel.free([("x2", 2), ("x2", 4)])

    def test_unknown_diff_target(self):
        free = SullivanModel.free([("x2", 2)])
        with pytest.raises(ValueError):
            free.with_differentials({"x9": free.gen("x2")})


class TestElementBasics:
    def test_degree(self):
        m = cp2()
        assert (m.gen("x2") ** 3).degree() == 6
        assert m.zero().degree() is None
        with pytest.raises(ValueError):
            (m.gen("x2") + m.gen("x5")).degree()

    def test_equality_ignores_differential(self):
        free = SullivanModel.free([("y2", 2), ("y3", 3)])
        m = free.with_differentials({"y3": free.gen("y2") ** 2})
        assert free.gen("y2") == m.gen("y2")

    def test_repr(self):
        m = cp2()
        e = m.gen("x5") - 2 * m.gen("x2") * m.gen("x5")
        assert repr(e) == "x5 - 2*x2*x5"
        assert repr(m.zero()) == "0"
        assert repr(m.constant(Fraction(-3, 4))) == "-3/4"
        assert repr(Fraction(1, 2) * m.gen("x2") ** 3 - 1) == "-1 + 1/2*x2^3"

    def test_format_terms(self):
        # the text of (word, coefficient text) terms, as an element prints
        assert format_terms([]) == "0"
        assert format_terms([("1", "3")]) == "3"
        assert format_terms([("x2", "1"), ("x5", "-1")]) == "x2 - x5"
        assert format_terms([("x2^3", "-1/2"), ("1", "-2")]) == "-1/2*x2^3 - 2"
