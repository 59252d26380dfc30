"""End-to-end obstruction pipeline tests.

The sweep outcomes, certificate rows, and witness differentials asserted
here were each derived by hand: long-exact-sequence solutions, formal
dimensions, and cocycle/coboundary counts in the relevant degrees were
computed independently before being frozen into the expectations below.
"""

import json
from fractions import Fraction

import pytest

from sullivan.algebra import (
    coefficient_box,
    search_differentials,
    validate_model,
)
from sullivan.cohomology import betti_table
from sullivan.ellipticity import RankVector, formal_dimension
from sullivan.exactseq import fiber_rank_vectors
from sullivan.pipeline import (
    INTEGRAL_FLAG,
    KillCertificate,
    RelativeWitness,
    SpaceCatalogEntry,
    analyze,
    _candidate_monomials,
    _coeff_tuple,
    _relative_skeleton,
    audit_table,
    catalog,
    check_dimension_formula,
    check_relative_cohomology,
    check_wang_bound,
    element_from_data,
    element_terms_data,
    find_entry,
    model_data,
    model_from_data,
    monomial_from_word,
    reproduce,
)


def rv(text: str) -> RankVector:
    return RankVector.parse(text)


class TestCatalog:
    def test_table_rows_and_named_totals(self):
        entries = catalog()
        assert len(entries) == 19
        assert sum(1 for e in entries if e.table_row) == 17
        named = [e.name for e in entries if not e.table_row]
        assert named == ["eschenburg", "bazaikin"]

    def test_dims_match_formal_dimension(self):
        for e in catalog():
            assert e.dim == formal_dimension(e.rank_vector)

    def test_models_are_valid_and_minimal(self):
        for e in catalog():
            report = validate_model(e.model, require_minimal=True)
            assert report.ok, f"{e.name}: {report.summary()}"

    # product Betti tables double-checked against the factorwise tables
    @pytest.mark.parametrize(
        "name, values",
        [
            ("S2", (1, 0, 1)),
            ("S3", (1, 0, 0, 1)),
            ("S5", (1, 0, 0, 0, 0, 1)),
            ("CP2", (1, 0, 1, 0, 1)),
            ("S2xS5", (1, 0, 1, 0, 0, 1, 0, 1)),
            ("S2xCP2", (1, 0, 2, 0, 2, 0, 1)),
            ("bazaikin", (1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)),
        ],
    )
    def test_betti_tables(self, name, values):
        assert find_entry(name).betti.values == values

    def test_betti_tables_computed_on_first_read(self):
        catalog.cache_clear()
        entries = catalog()
        assert not [e.name for e in entries if "betti" in vars(e)]
        fresh = {
            e.name: SpaceCatalogEntry.of(e.name, e.model, e.aliases, e.table_row) for e in entries
        }
        digests = {e.name: hash(e) for e in entries}
        analyze("S7", 6)
        assert [e.name for e in entries if "betti" in vars(e)] == ["S7"]
        assert find_entry("S7").betti.values == (1, 0, 0, 0, 0, 0, 0, 1)
        for e in entries:
            assert e == fresh[e.name] and fresh[e.name] == e
            assert hash(e) == hash(fresh[e.name]) == digests[e.name]

    def test_find_entry_aliases(self):
        # W6 = SU(3)/T^2 has S2xCP2's rank vector and Betti numbers but
        # another rational type, so it names no catalog entry
        with pytest.raises(KeyError):
            find_entry("W6")
        assert find_entry("ESCHENBURG").name == "eschenburg"
        assert find_entry("bazaikin-rational-type").name == "bazaikin"

    def test_find_entry_unknown(self):
        with pytest.raises(KeyError):
            find_entry("klein-bottle")

    def test_named_totals_share_product_profiles(self):
        assert find_entry("eschenburg").betti == find_entry("S2xS5").betti
        assert find_entry("eschenburg").rank_vector == rv("2:1,3:1,5:1")
        assert find_entry("bazaikin").rank_vector == rv("2:1,5:1,9:1")


class TestSerialization:
    def test_format_element_signs(self):
        m = find_entry("CP2").model
        x2, x5 = m.gen("x2"), m.gen("x5")
        assert str(x5 - x2 * x2) == "x5 - x2^2"
        assert str(2 * x2) == "2*x2"
        assert str(m.zero()) == "0"

    def test_terms_roundtrip(self):
        m = find_entry("S2xCP2").model
        x = m.gen("a2") * m.gen("b2") - 3 * m.gen("a2") ** 2
        data = element_terms_data(x)
        assert element_from_data(m, data) == x
        assert element_from_data(m, []).is_zero()

    def test_monomial_from_word_roundtrip(self):
        m = find_entry("bazaikin").model
        for k in range(11):
            for mon in m.basis_of_degree(k):
                assert monomial_from_word(m, mon.format()) == mon

    def test_monomial_from_word_rejects_unknown(self):
        m = find_entry("S2").model
        with pytest.raises(ValueError):
            monomial_from_word(m, "q7")

    def test_model_roundtrip(self):
        for e in catalog():
            assert model_from_data(model_data(e.model)) == e.model


class TestKillCertificateBasics:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KillCertificate("spectral-sequence", {})

    def test_to_dict_shape(self):
        cert = check_dimension_formula(rv("2:1,3:1,5:1"), 5)
        d = cert.to_dict()
        assert d["kind"] == "dimension-formula"
        assert d["detail"]["computed"] == 7
        assert d["detail"]["required"] == 5


class TestDimensionFormula:
    def test_matching_case_passes(self):
        # fd{2:1,5:1} = 5 - 1 = 4, exactly 7 - 3
        assert check_dimension_formula(rv("2:1,5:1"), 4) is None

    def test_headline_mismatches(self):
        cert = check_dimension_formula(rv("2:2,3:1,5:1"), 4)
        assert (cert.detail["computed"], cert.detail["required"]) == (6, 4)
        cert = check_dimension_formula(rv("2:1,3:1,5:1"), 5)
        assert (cert.detail["computed"], cert.detail["required"]) == (7, 5)

    def test_negative_required_rejected(self):
        with pytest.raises(ValueError):
            check_dimension_formula(rv("3:1"), -1)

    def test_revalidate_and_tamper(self):
        cert = check_dimension_formula(rv("2:2,3:1,5:1"), 4)
        assert cert.revalidate()
        bad = KillCertificate(cert.kind, {**cert.detail, "computed": 5})
        assert not bad.revalidate()
        agree = KillCertificate(cert.kind, {**cert.detail, "required": 6})
        assert not agree.revalidate()


class TestWangBound:
    def test_sphere_fiber_passes(self):
        total = find_entry("eschenburg").betti
        assert check_wang_bound(2, total, rv("5:1"), 5) is None

    def test_monomial_bound_kill(self):
        # over the 2-sphere the only profile with b1 = 1 needs b2 = 2,
        # but one degree-1 and one degree-2 generator span a single
        # degree-2 monomial
        total = find_entry("eschenburg").betti
        cert = check_wang_bound(2, total, rv("1:1,2:1,5:1"), 5)
        assert cert is not None and cert.kind == "wang-betti-bound"
        assert cert.detail["degree"] == 2
        assert cert.detail["required"] == 2
        assert cert.detail["bound"] == 1
        assert cert.detail["profiles_without_caps"] == [[1, 1, 2, 2, 1, 1]]

    def test_revalidate_and_tamper(self):
        total = find_entry("eschenburg").betti
        cert = check_wang_bound(2, total, rv("1:1,2:1,5:1"), 5)
        assert cert.revalidate()
        bad = KillCertificate(cert.kind, {**cert.detail, "bound": 5})
        assert not bad.revalidate()


class TestRelativeModelFamily:
    def test_family_over_odd_sphere(self):
        skeleton, fiber_gens = _relative_skeleton(find_entry("S3").model, rv("2:1,5:1"))
        coeffs = (Fraction(0), Fraction(1))
        found = []

        def options(path):
            monomials = _candidate_monomials(skeleton, fiber_gens[len(path)])
            return monomials, coefficient_box(len(monomials), coeffs)

        def leaf(path, model):
            texts = tuple((g.name, str(v)) for g, (_, v) in zip(fiber_gens, path))
            found.append((texts, model))

        result, dropped = search_differentials(
            skeleton, fiber_gens, options, lambda path, model: True, leaf
        )
        # z2 -> 0 or x3; z5 -> 0 or z2^3, but d(z5)=z2^3 needs dz2 = 0
        assert result is None and dropped == 1
        assert sorted(texts for texts, _ in found) == [
            (("z2", "0"), ("z5", "0")),
            (("z2", "0"), ("z5", "z2^3")),
            (("z2", "x3"), ("z5", "0")),
        ]
        for _, model in found:
            assert validate_model(model, require_minimal=False).ok

    def test_base_generators_marked(self):
        model, _ = _relative_skeleton(find_entry("S3").model, rv("2:1,5:1"))
        assert model.generator("x3").origin == "base"
        assert model.generator("z2").origin == "fiber"

    def test_coeff_set_must_contain_zero(self):
        base = find_entry("S3").model
        with pytest.raises(ValueError):
            check_relative_cohomology(base, rv("2:1"), find_entry("S2xS3").betti, coeff_set=(1,))

    def test_repeated_coefficients_dropped(self):
        assert _coeff_tuple((1, 0, 1, Fraction(1), 0)) == (Fraction(0), Fraction(1))
        total = find_entry(ESCH)
        args = (find_entry("S3").model, rv("2:1,5:1"), total.betti)
        plain = check_relative_cohomology(*args, coeff_set=(0, 1))
        repeated = check_relative_cohomology(*args, coeff_set=(0, 1, 1, 0))
        assert repeated.to_dict() == plain.to_dict()


ESCH = "eschenburg"
BAZ = "bazaikin"


class TestRelativeCohomologyKills:
    def test_odd_sphere_base_kill(self):
        """No differential on (z2, z5) over the 3-sphere reaches the
        product profile: dz2 = x3 empties degree 2, dz2 = 0 overfills
        degree 3, and the untwisted scan shows the stray z2^2 class."""
        total = find_entry(ESCH)
        cert = check_relative_cohomology(
            find_entry("S3").model, rv("2:1,5:1"), total.betti
        )
        assert isinstance(cert, KillCertificate)
        assert cert.kind == "relative-model-cohomology"
        assert cert.detail["degree"] == 3
        rows = {
            (tuple(sorted(b["assignment"])), b["degree"]): (b["computed"], b["required"])
            for b in cert.detail["branches"]
        }
        assert rows == {
            (("z2",), 3): (1, 0),
            (("z2",), 2): (0, 1),
        }
        scan = {r["degree"]: r for r in cert.detail["scan"]["rows"]}
        assert scan[4]["computed"] == 1
        assert scan[4]["required"] == 0
        assert scan[4]["witnesses"] == ["z2^2"]
        assert cert.revalidate()

    def test_odd_sphere_base_kill_tamper(self):
        total = find_entry(ESCH)
        cert = check_relative_cohomology(
            find_entry("S3").model, rv("2:1,5:1"), total.betti
        )
        detail = json.loads(json.dumps(cert.detail))
        detail["branches"][0]["computed"] += 1
        assert not KillCertificate(cert.kind, detail).revalidate()

    def test_five_sphere_base_kill(self):
        # no degree-3 words exist over (x5, z2, z9), so dz2 = 0 is forced
        # and the base volume class survives in degree 5
        total = find_entry(BAZ)
        cert = check_relative_cohomology(
            find_entry("S5").model, rv("2:1,9:1"), total.betti
        )
        assert isinstance(cert, KillCertificate)
        assert cert.detail["degree"] == 5
        assert cert.detail["candidates"]["z2"] == []
        scan = {r["degree"]: r for r in cert.detail["scan"]["rows"]}
        assert scan[5]["witnesses"] == ["x5"]
        assert scan[5]["computed"] == 1 and scan[5]["required"] == 0

    def test_projective_base_kill_and_span(self):
        """dz1 = x2 is forced by degree 1, then dz2 must vanish, and the
        degree-6 coboundary image is only 3-dimensional: z2^3 survives."""
        total = find_entry(BAZ)
        cert = check_relative_cohomology(
            find_entry("CP2").model, rv("1:1,2:1,9:1"), total.betti
        )
        assert isinstance(cert, KillCertificate)
        assert cert.detail["degree"] == 5
        assert cert.detail["scan"]["assignment"]["z1"] == [["x2", "1"]]
        assert cert.detail["scan"]["assignment"]["z2"] == []
        scan = {r["degree"]: r for r in cert.detail["scan"]["rows"]}
        assert scan[5]["witnesses"] == ["x5 - x2^2*z1"]
        assert scan[6]["witnesses"] == ["z2^3"]
        assert scan[6]["image_rank"] == 3
        assert set(scan[6]["image"]) == {"x2^3", "x2^2*z2", "x2*z2^2"}
        assert cert.revalidate()

    def test_projective_base_candidate_pool(self):
        total = find_entry(BAZ)
        cert = check_relative_cohomology(
            find_entry("CP2").model, rv("1:1,2:1,9:1"), total.betti
        )
        assert cert.detail["candidates"]["z1"] == ["x2"]
        assert len(cert.detail["candidates"]["z9"]) == 10


class TestRelativeCohomologyWitnesses:
    @pytest.mark.parametrize(
        "total, base, fiber, differentials",
        [
            (ESCH, "S2", "5:1", {"z5": "0"}),
            (ESCH, "CP2", "3:1", {"z3": "x2^2"}),
            (ESCH, "CP2", "1:1,2:1,3:1", {"z1": "x2", "z2": "0", "z3": "z2^2"}),
            (ESCH, "S5", "2:1,3:1", {"z2": "0", "z3": "z2^2"}),
            (ESCH, "S2xCP2", "1:1", {"z1": "b2"}),
            (BAZ, "CP2", "9:1", {"z9": "0"}),
        ],
    )
    def test_surviving_assignments(self, total, base, fiber, differentials):
        entry = find_entry(total)
        out = check_relative_cohomology(
            find_entry(base).model, rv(fiber), entry.betti
        )
        assert isinstance(out, RelativeWitness)
        assert out.assignment_text() == differentials

    def test_witness_reports_dropped_points(self):
        """z1 = 0 leaves b1 = 1 and is pruned, so z1 = x2; the first z2
        point, 0, leads to the witness.  z3 walks (z2^2, z1*z3, x2*z2,
        x2^2) in product order up to (1, 0, 0, 0), the witness z2^2.  Of
        the 8 points before it, the 4 with z1*z3 carry d(z1*z3) = x2*z3 +
        (terms in z1), whose x2*z3 nothing else cancels: 4 drops."""
        out = check_relative_cohomology(
            find_entry("CP2").model, rv("1:1,2:1,3:1"), find_entry(ESCH).betti
        )
        assert isinstance(out, RelativeWitness)
        assert out.rejected_invalid == 4

    def test_witness_model_matches_target(self):
        entry = find_entry(ESCH)
        out = check_relative_cohomology(
            find_entry("CP2").model, rv("1:1,2:1,3:1"), entry.betti
        )
        assert betti_table(out.model, 9).values == (1, 0, 1, 0, 0, 1, 0, 1, 0, 0)


# frozen sweep tables: (fiber, status, certificate kind or witness text)
K_DIM = "dimension-formula"
K_REL = "relative-model-cohomology"
K_WANG = "wang-betti-bound"

ESCH_SWEEP = {
    "S2": [
        ("{5:1}", "survives-rationally", None),
        ("{2:1, 3:1, 5:1}", "killed", K_DIM),
        ("{1:1, 2:1, 5:1}", "killed", K_WANG),
        ("{1:1, 2:2, 3:1, 5:1}", "killed", K_DIM),
    ],
    "S3": [
        ("{2:1, 5:1}", "killed", K_REL),
        ("{2:2, 3:1, 5:1}", "killed", K_DIM),
    ],
    "S4": [("{2:1, 3:2, 5:1, 6:1}", "killed", K_DIM)],
    "CP2": [
        ("{3:1}", "survives-rationally", None),
        ("{3:1, 4:1, 5:1}", "killed", K_DIM),
        ("{1:1, 2:1, 3:1}", "survives-rationally", None),
        ("{1:1, 2:1, 3:1, 4:1, 5:1}", "killed", K_DIM),
    ],
    "S2xS2": [
        ("{1:1, 2:1, 5:1}", "killed", K_DIM),
        ("{1:1, 2:2, 3:1, 5:1}", "killed", K_DIM),
        ("{1:2, 2:2, 5:1}", "killed", K_DIM),
        ("{1:2, 2:3, 3:1, 5:1}", "killed", K_DIM),
    ],
    "S5": [
        ("{2:1, 3:1}", "survives-rationally", None),
        ("{2:1, 3:1, 4:1, 5:1}", "killed", K_DIM),
    ],
    "S2xS3": [
        ("{2:1, 5:1}", "killed", K_DIM),
        ("{2:2, 3:1, 5:1}", "killed", K_DIM),
        ("{1:1, 2:2, 5:1}", "killed", K_DIM),
        ("{1:1, 2:3, 3:1, 5:1}", "killed", K_DIM),
    ],
    "S6": [("{2:1, 3:1, 5:2, 10:1}", "killed", K_DIM)],
    "S3xS3": [
        ("{2:2, 5:1}", "killed", K_DIM),
        ("{2:3, 3:1, 5:1}", "killed", K_DIM),
    ],
    "CP3": [
        ("{3:1, 5:1, 6:1}", "killed", K_DIM),
        ("{1:1, 2:1, 3:1, 5:1, 6:1}", "killed", K_DIM),
    ],
    "S2xS4": [
        ("{3:1, 5:1, 6:1}", "killed", K_DIM),
        ("{2:1, 3:2, 5:1, 6:1}", "killed", K_DIM),
        ("{1:1, 2:1, 3:1, 5:1, 6:1}", "killed", K_DIM),
        ("{1:1, 2:2, 3:2, 5:1, 6:1}", "killed", K_DIM),
    ],
    "S2xCP2": [
        ("{1:1}", "survives-rationally", None),
        ("{1:1, 4:1, 5:1}", "killed", K_DIM),
        ("{1:1, 2:1, 3:1}", "killed", K_DIM),
        ("{1:1, 2:1, 3:1, 4:1, 5:1}", "killed", K_DIM),
        ("{1:2, 2:1}", "killed", K_REL),
        ("{1:2, 2:1, 4:1, 5:1}", "killed", K_DIM),
        ("{1:2, 2:2, 3:1}", "killed", K_DIM),
        ("{1:2, 2:2, 3:1, 4:1, 5:1}", "killed", K_DIM),
    ],
    "S2xS2xS2": [
        ("{1:2, 2:2, 5:1}", "killed", K_DIM),
        ("{1:2, 2:3, 3:1, 5:1}", "killed", K_DIM),
        ("{1:3, 2:3, 5:1}", "killed", K_DIM),
        ("{1:3, 2:4, 3:1, 5:1}", "killed", K_DIM),
    ],
}

BAZ_SWEEP = {
    "S2": [
        ("{2:1, 5:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:2, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S3": [("{2:2, 5:1, 9:1}", "killed", K_DIM)],
    "S4": [("{2:1, 3:1, 5:1, 6:1, 9:1}", "killed", K_DIM)],
    "CP2": [
        ("{9:1}", "survives-rationally", None),
        ("{4:1, 5:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:1, 9:1}", "killed", K_REL),
        ("{1:1, 2:1, 4:1, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S2xS2": [
        ("{1:1, 2:2, 5:1, 9:1}", "killed", K_DIM),
        ("{1:2, 2:3, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S5": [
        ("{2:1, 9:1}", "killed", K_REL),
        ("{2:1, 4:1, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S2xS3": [
        ("{2:2, 5:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:3, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S6": [("{2:1, 5:2, 9:1, 10:1}", "killed", K_DIM)],
    "S3xS3": [("{2:3, 5:1, 9:1}", "killed", K_DIM)],
    "CP3": [
        ("{5:1, 6:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:1, 5:1, 6:1, 9:1}", "killed", K_DIM),
    ],
    "S2xS4": [
        ("{2:1, 3:1, 5:1, 6:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:2, 3:1, 5:1, 6:1, 9:1}", "killed", K_DIM),
    ],
    "S2xCP2": [
        ("{1:1, 2:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:1, 4:1, 5:1, 9:1}", "killed", K_DIM),
        ("{1:2, 2:2, 9:1}", "killed", K_DIM),
        ("{1:2, 2:2, 4:1, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S2xS2xS2": [
        ("{1:2, 2:3, 5:1, 9:1}", "killed", K_DIM),
        ("{1:3, 2:4, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S7": [("{2:1, 5:1, 6:1, 9:1}", "killed", K_DIM)],
    "S3xS4": [("{2:2, 3:1, 5:1, 6:1, 9:1}", "killed", K_DIM)],
    "S2xS5": [
        ("{2:1, 9:1}", "killed", K_DIM),
        ("{2:1, 4:1, 5:1, 9:1}", "killed", K_DIM),
        ("{1:1, 2:2, 9:1}", "killed", K_DIM),
        ("{1:1, 2:2, 4:1, 5:1, 9:1}", "killed", K_DIM),
    ],
    "S2xS2xS3": [
        ("{1:1, 2:3, 5:1, 9:1}", "killed", K_DIM),
        ("{1:2, 2:4, 5:1, 9:1}", "killed", K_DIM),
    ],
}


def sweep_rows(report):
    return {
        e.name: [
            (str(v.fiber), v.status, v.certificate.kind if v.certificate else None)
            for v in e.verdicts
        ]
        for e in report.entries
    }


class TestAnalyzeSweeps:
    def test_dim6_sweep_frozen(self):
        report = analyze(ESCH, 6)
        assert sweep_rows(report) == ESCH_SWEEP
        assert [e.name for e in report.survivors] == ["S2", "CP2", "S5", "S2xCP2"]

    def test_dim7_sweep_frozen(self):
        report = analyze(BAZ, 7)
        assert sweep_rows(report) == BAZ_SWEEP
        assert [e.name for e in report.survivors] == ["CP2"]

    def test_integral_flags(self):
        flagged = [
            (e.name, str(v.fiber))
            for e in analyze(ESCH, 6).entries
            for v in e.verdicts
            if INTEGRAL_FLAG in v.flags
        ]
        assert flagged == [("S2", "{5:1}")]
        flagged = [
            (e.name, str(v.fiber))
            for e in analyze(BAZ, 7).entries
            for v in e.verdicts
            if INTEGRAL_FLAG in v.flags
        ]
        assert flagged == [("CP2", "{9:1}")]

    def test_every_sequence_case_judged_once(self):
        report = analyze(ESCH, 6)
        for e in report.entries:
            expected = fiber_rank_vectors(report.total, e.base)
            assert [v.fiber for v in e.verdicts] == expected

    def test_small_cap(self):
        report = analyze(ESCH, 3)
        assert [e.name for e in report.entries] == ["S2", "S3"]
        assert [e.name for e in report.survivors] == ["S2"]

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            analyze(ESCH, 1)
        with pytest.raises(ValueError):
            analyze(ESCH, 7)

    def test_report_to_dict_serializable(self):
        blob = json.dumps(analyze(ESCH, 6).to_dict())
        assert "survivors" in blob

    def test_checks_run_recorded_in_order(self):
        report = analyze(ESCH, 6)
        s2 = next(e for e in report.entries if e.name == "S2")
        by_fiber = {str(v.fiber): v.checks_run for v in s2.verdicts}
        assert by_fiber["{2:1, 3:1, 5:1}"] == ("dimension-formula",)
        assert by_fiber["{1:1, 2:1, 5:1}"] == ("dimension-formula", "wang-betti-bound")
        assert by_fiber["{5:1}"] == (
            "dimension-formula",
            "wang-betti-bound",
            "relative-model-cohomology",
        )
        s3 = next(e for e in report.entries if e.name == "S3")
        by_fiber = {str(v.fiber): v.checks_run for v in s3.verdicts}
        # the 2-sphere bound applies only over the rational 2-sphere
        assert by_fiber["{2:1, 5:1}"] == ("dimension-formula", "relative-model-cohomology")

    def test_smaller_cap_is_a_restriction(self):
        small = analyze(ESCH, 4)
        big = analyze(ESCH, 6)
        prefix = {e.name: e for e in big.entries if e.dim <= 4}
        assert len(small.entries) == len(prefix)
        for e in small.entries:
            assert e == prefix[e.name]

    def test_minus_one_zero_one_drop_count(self):
        # under the box {-1, 0, 1} the S2xCP2 {1:2, 2:1} kill drops
        # 105296 values by d*d = 0, the most of the sweep
        report = analyze(ESCH, 6, coeff_set=(-1, 0, 1))
        entry = next(e for e in report.entries if e.name == "S2xCP2")
        verdict = next(v for v in entry.verdicts if str(v.fiber) == "{1:2, 2:1}")
        assert verdict.certificate.kind == "relative-model-cohomology"
        assert verdict.certificate.detail["rejected_invalid"] == 105296

    def test_catalog_survives_live_audit(self):
        assert audit_table() == []

    def test_product_fibrations_never_killed(self):
        # the two untwisted witnesses must pass every rational check
        esch = analyze(ESCH, 6)
        s2 = next(e for e in esch.entries if e.name == "S2")
        v = next(x for x in s2.verdicts if str(x.fiber) == "{5:1}")
        assert v.survives and v.witness == {"differentials": {"z5": "0"}}
        baz = analyze(BAZ, 7)
        cp2 = next(e for e in baz.entries if e.name == "CP2")
        v = next(x for x in cp2.verdicts if str(x.fiber) == "{9:1}")
        assert v.survives and v.witness == {"differentials": {"z9": "0"}}


TABLE1 = {
    "2": ["{2:1, 3:1}"],
    "3": ["{3:1}"],
    "4": ["{4:1, 7:1}", "{2:1, 5:1}", "{2:2, 3:2}"],
    "5": ["{5:1}", "{2:1, 3:2}"],
    "6": [
        "{6:1, 11:1}",
        "{3:2}",
        "{2:1, 7:1}",
        "{2:1, 3:1, 4:1, 7:1}",
        "{2:2, 3:1, 5:1}",
        "{2:3, 3:3}",
    ],
    "7": [
        "{7:1}",
        "{3:1, 4:1, 7:1}",
        "{2:1, 3:1, 5:1}",
        "{2:2, 3:3}",
    ],
}


class TestReproduce:
    def test_table1(self):
        out = reproduce("table1")
        assert out["dimensions"] == TABLE1
        assert sum(len(v) for v in out["dimensions"].values()) == 17

    def test_realized_matches_catalog_rows(self):
        names = {str(e.rank_vector) for e in catalog() if e.table_row}
        listed = {s for vs in TABLE1.values() for s in vs}
        assert names == listed

    def test_prop_targets_carry_sweeps(self):
        assert reproduce("prop31")["survivors"] == [
            "S2", "CP2", "S5", "S2xCP2",
        ]
        assert reproduce("prop32")["survivors"] == ["S2"]
        assert reproduce("prop41")["survivors"] == ["CP2"]

    def test_prop42_span_block(self):
        span = reproduce("prop42")["degree6_span"]
        assert span["rank"] == 3
        assert set(span["monomials"]) == {"x2^3", "x2^2*z2", "x2*z2^2"}
        assert span["witnesses"] == ["z2^3"]
        assert span["forced"]["z1"] == "x2"
        assert span["forced"]["z2"] == "0"

    def test_theorem_summaries(self):
        ta = reproduce("theoremA")
        assert ta["rationally_possible_bases"] == ["S2", "CP2", "S5", "S2xCP2"]
        assert ta["integral_steps_required"] == [{"base": "S2", "fiber": "{5:1}"}]
        tb = reproduce("theorem-b")
        assert tb["rationally_possible_bases"] == ["CP2"]
        assert tb["integral_steps_required"] == [{"base": "CP2", "fiber": "{9:1}"}]

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            reproduce("prop99")

    def test_targets_json_serializable(self):
        for target in ("table1", "prop31", "prop42", "theoremA"):
            json.dumps(reproduce(target))
