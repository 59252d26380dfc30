"""Parser and printer tests for the model description language."""

from fractions import Fraction

import pytest

from sullivan.dsl import (
    ModelDocument,
    ParseError,
    format_model,
    parse_document,
    parse_model,
    read_list,
    read_pairs,
    read_scalar,
)
from sullivan.pipeline import catalog, element_from_data, find_entry

CP2_TEXT = """
space CP2 {
    generator x2 : 2;
    generator x5 : 5;
    d x5 = x2^3;
}
"""


class TestParsing:
    def test_projective_plane(self):
        model = parse_model(CP2_TEXT)
        assert model == find_entry("CP2").model

    def test_whitespace_insensitive(self):
        squashed = "space CP2{generator x2:2;generator x5:5;d x5=x2^3;}"
        assert parse_model(squashed) == parse_model(CP2_TEXT)

    def test_omitted_clause_means_zero(self):
        model = parse_model("space S3 { generator x3 : 3; }")
        assert model.d_of_generator("x3").is_zero()

    def test_origin_tags(self):
        model = parse_model(
            """
            space E {
                generator x2 : 2 base;
                generator z1 : 1 fiber;
                d z1 = x2;
            }
            """
        )
        assert model.generator("x2").origin == "base"
        assert model.generator("z1").origin == "fiber"

    def test_coefficients_and_signs(self):
        model = parse_model(
            """
            space M {
                generator a2 : 2;
                generator b2 : 2;
                generator c5 : 5;
                d c5 = 2*a2^3 - 1/2 a2*b2^2 + b2^3;
            }
            """
        )
        dc = model.d_of_generator("c5")
        a2, b2 = model.gen("a2"), model.gen("b2")
        assert dc == 2 * a2**3 - Fraction(1, 2) * a2 * b2**2 + b2**3

    def test_koszul_reordering_sign(self):
        # writing odd factors out of declaration order flips the sign
        text = """
        space M {{
            generator a3 : 3;
            generator b1 : 1;
            generator c3 : 3;
            d c3 = {word};
        }}
        """
        plus = parse_model(text.format(word="a3*b1"))
        minus = parse_model(text.format(word="b1*a3"))
        assert plus.d_of_generator("c3") == -minus.d_of_generator("c3")

    def test_odd_square_normalizes_with_note(self):
        doc = parse_document(
            """
            space M {
                generator x3 : 3;
                generator x5 : 5;
                d x5 = x3*x3;
            }
            """
        )
        assert isinstance(doc, ModelDocument)
        assert doc.model.d_of_generator("x5").is_zero()
        assert len(doc.notes) == 1
        assert "normalizes to zero" in doc.notes[0]
        assert "x5" in doc.notes[0]

    def test_cancellation_gives_zero(self):
        model = parse_model(
            """
            space M {
                generator x2 : 2;
                generator y5 : 5;
                d y5 = x2^3 - x2^3;
            }
            """
        )
        assert model.d_of_generator("y5").is_zero()


class TestParseErrors:
    def test_undeclared_name_in_clause(self):
        with pytest.raises(ParseError) as err:
            parse_model("space M { generator x5:5; d x5 = y2^3; }")
        assert "y2" in str(err.value)
        assert err.value.line == 1

    def test_degree_mismatch_with_location(self):
        with pytest.raises(ParseError) as err:
            parse_model(
                "space M {\n  generator x2 : 2;\n  generator x5 : 5;\n  d x5 = x2^2;\n}"
            )
        assert "degree 6" in str(err.value)
        assert err.value.line == 4

    def test_duplicate_generator(self):
        with pytest.raises(ParseError) as err:
            parse_model("space M { generator x2:2; generator x2:3; }")
        assert "duplicate" in str(err.value)

    def test_duplicate_clause(self):
        with pytest.raises(ParseError) as err:
            parse_model(
                "space M { generator x2:2; generator x5:5; d x5 = x2^3; d x5 = x2^3; }"
            )
        assert "second differential" in str(err.value)

    def test_clause_for_undeclared_generator(self):
        with pytest.raises(ParseError) as err:
            parse_model("space M { generator x2:2; d q9 = x2; }")
        assert "q9" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "space M { generator x2:2;",  # unterminated
            "space M { generator x2:0; }",  # bad degree
            "space M { generator d:2; }",  # keyword as name
            "space M { generator x2:2; d x2 = ; }",  # empty expression
            "space M { generator x2:2; generator y3:3; d y3 = 1/0*x2^2; }",
            "space M { generator x2:2; generator y3:3; d y3 = x2^0; }",
            "space M { generator x2:2; } trailing",
            "space M { generator x2 @ 2; }",  # stray character
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            parse_model(text)

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            # str.isdigit admits superscript digits, which int() rejects
            ("space M {\n  generator x : \u00b2;\n}", 2, 17, "unexpected character"),
            ("space M {\n  generator x : 2;\n  generator y : 3;\n  d y = x^\u00b2;\n}",
             4, 11, "unexpected character"),
            # str.isalnum admits them inside a word, which is then no identifier
            ("space M {\n  generator x\u00b2 : 2;\n}", 2, 13, "is not an identifier"),
        ],
    )
    def test_non_ascii_digits_are_parse_errors(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in err.value.message

    @pytest.mark.parametrize(
        "text, sep, col, message",
        [
            # a field's error sits at its column in the whole list; sep
            # None reads numbers, else pairs int sep int
            ("0,1_0", None, 4, "trailing input"),
            ("0,,1", None, 3, "empty field 2"),
            ("0, 1_0", None, 5, "trailing input"),
            (",0", None, 1, "empty field 1"),
            ("2:1,3:x", ":", 7, "expected an integer"),
            ("1=0,2:1", "=", 6, "found ':'"),
            ("2:1, 2 : 1", ":", 6, "is not one word"),
        ],
    )
    def test_list_errors_are_placed_in_the_list(self, text, sep, col, message):
        with pytest.raises(ParseError) as err:
            read_pairs(text, sep) if sep else read_list(text, read_scalar)
        assert (err.value.line, err.value.col) == (1, col)
        assert message in err.value.message

    def test_expected_tokens_attached(self):
        with pytest.raises(ParseError) as err:
            parse_model("space M generator x2:2; }")
        assert err.value.expected


class TestRoundTrip:
    def test_catalog_models_round_trip(self):
        for entry in catalog():
            text = format_model(entry.model, entry.name)
            doc = parse_document(text)
            assert doc.model == entry.model
            assert doc.name == entry.name
            assert doc.notes == ()

    def test_origin_tags_round_trip(self):
        text = """
        space E {
            generator x2 : 2 base;
            generator x3 : 3 base;
            generator z4 : 4 fiber;
            d x3 = x2^2;
            d z4 = x2*x3;
        }
        """
        model = parse_model(text)
        assert parse_model(format_model(model, "E")) == model

    def test_printed_form_is_stable(self):
        model = parse_model(CP2_TEXT)
        once = format_model(model, "CP2")
        assert format_model(parse_model(once), "CP2") == once


def _reads(read, text):
    """read(text), or None when it raises ValueError."""
    try:
        return read(text)
    except ValueError:
        return None


class TestOneReader:
    """A certificate field and a --coeffs piece mean what the same text
    means in a model file, and are rejected where a model file rejects it."""

    COEFFICIENTS = {
        "1": 1, "0": 0, "+1": 1, "-1": -1, "-1/2": Fraction(-1, 2), "3/6": Fraction(1, 2),
        "007": 7, "--2": 2, "+-3": -3, "12345678901234567890": 12345678901234567890,
        "1/0": None, "1_0": None, "1e1": None, "1.5": None, "２": None, "²": None,
        "1/": None, "/2": None, "-": None, "+": None, "1/-2": None, "1/2/3": None,
        "0x10": None, "q": None, "inf": None,
    }

    def test_coefficients_read_alike(self):
        from sullivan.cli import CommandError, _coeffs_from

        def model_file(c):
            text = f"space M {{ generator x : 2; generator y : 3; d y = {c}*x^2; }}"
            return sum(parse_model(text).d("y").terms.values(), Fraction(0))

        def certificate(c):
            free = parse_model("space M { generator x : 2; }")
            return sum(element_from_data(free, [["x^2", c]]).terms.values(), Fraction(0))

        def coeffs_piece(c):
            try:
                (value,) = _coeffs_from(c)
            except CommandError as exc:
                raise ValueError(exc) from None
            return value

        for text, want in self.COEFFICIENTS.items():
            got = [_reads(read, text) for read in (model_file, certificate, coeffs_piece)]
            assert got == [want] * 3, text
        # a model file skips whitespace, a --coeffs piece is stripped, and
        # a certificate field is one word
        for text in (" 1", "1 ", "- 1", "3 /6"):
            assert _reads(certificate, text) is None
            assert _reads(model_file, text) == self.COEFFICIENTS["".join(text.split())]

    # word -> its factors in the order written, None for a rejected word
    WORDS = {
        "a2": (("a2", 1),), "b5*a3": (("b5", 1), ("a3", 1)), "a2^2*a3": (("a2", 2), ("a3", 1)),
        "a3*a2^2": (("a3", 1), ("a2", 2)), "b2^3": (("b2", 3),), "a2*b2*a2": (("a2", 1), ("b2", 1), ("a2", 1)),
        "a2^07": (("a2", 7),), "a3*a3": (("a3", 1), ("a3", 1)), "a3^2": (("a3", 2),),
        "b5*a3*b5": (("b5", 1), ("a3", 1), ("b5", 1)),
        "q7": None, "a2^0": None, "a2^-1": None, "a2^": None, "a2*": None, "*a2": None,
        "a2**b2": None, "a2^1_0": None, "a2^+2": None, "a2^２": None, "a2^²": None,
        "a2^1.0": None, "a2^2^2": None, "2*a2": None, "-a2": None, "d": None, "a2/2": None,
    }

    def test_words_read_alike(self):
        gens = "generator a2 : 2; generator a3 : 3; generator b2 : 2; generator b5 : 5;"
        free = parse_model(f"space M {{ {gens} }}")

        def model_file(word, degree):
            # 1* puts the word where a d-clause term has its factor list
            return parse_document(f"space M {{ {gens} generator t : {degree}; d t = 1*{word}; }}")

        def certificate(word):
            return _reads(lambda w: element_from_data(free, [[w, "1"]]), word)

        for word, factors in self.WORDS.items():
            if factors is None:
                with pytest.raises(ParseError) as err:
                    model_file(word, 3)
                assert "needs degree" not in err.value.message, word
                assert certificate(word) is None, word
                continue
            want = free.unit()
            for name, power in factors:
                want = want * free.gen(name) ** power
            doc = model_file(word, sum(free.degree_of(n) * p for n, p in factors) - 1)
            # a word that is 0 leaves a note in a model file and is an error
            # in a certificate
            assert str(doc.model.d("t")) == str(want), word
            assert len(doc.notes) == (not want), word
            assert certificate(word) == (want or None), word
        # "1" is a certificate's unit word, which no d-clause needs; a
        # certificate field is one word
        assert certificate("1") == free.unit()
        for word in ("a2 *b2", "a2^ 2", " a2*a2"):
            assert certificate(word) is None
            assert model_file(word, 3).model == model_file("".join(word.split()), 3).model
