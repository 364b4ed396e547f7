from fractions import Fraction

import pytest

from conftest import data_path, load
from quivdeform.errors import InputError
from quivdeform.fields import Field
from quivdeform.fileio import (emit_algebra_text, emit_dot, emit_module_text,
                               parse_algebra_file, parse_algebra_text,
                               parse_expression, parse_module_text, parse_path,
                               signed_sum_str)

Q = Field.rationals()


def test_parse_dual_numbers():
    af = load("dual_numbers.alg")
    assert af.field == Q
    assert af.quiver.vertices == ["1"]
    assert [a[0] for a in af.quiver.arrows] == ["a"]
    assert len(af.relations) == 1
    aa = af.quiver.path_from_arrow_names(["a", "a"])
    assert af.relations[0].terms == {aa: Fraction(1)}
    key = (af.quiver.arrow_path("a"), af.quiver.arrow_path("a"))
    assert af.cocycle_pairs[key].terms == {af.quiver.trivial_path("1"): Fraction(1)}


def test_parse_quantum_plane_params():
    af = load("quantum_plane.alg")
    assert af.params == {"q": Fraction(1)}
    ab = af.quiver.path_from_arrow_names(["a", "b"])
    ba = af.quiver.path_from_arrow_names(["b", "a"])
    assert af.relations[2].terms == {ab: Fraction(1), ba: Fraction(1)}


def test_expression_parsing_corner_cases():
    af = load("two_cycle.alg")
    q = af.quiver
    e = parse_expression("2*a1*a2 - 1/3*e(1)", q, Q, {})
    a1a2 = q.path_from_arrow_names(["a1", "a2"])
    assert e.terms == {a1a2: Fraction(2), q.trivial_path("1"): Fraction(-1, 3)}
    e2 = parse_expression("a1*a2 + a1*a2", q, Q, {})
    assert e2.terms == {a1a2: Fraction(2)}
    e3 = parse_expression("a1*a2 - a1*a2", q, Q, {})
    assert e3.is_zero()
    e4 = parse_expression("-a1*a2", q, Q, {})
    assert e4.terms == {a1a2: Fraction(-1)}
    e5 = parse_expression("e(1)*a1", q, Q, {})
    assert e5.terms == {q.arrow_path("a1"): Fraction(1)}
    with pytest.raises(InputError):
        parse_expression("a1*a1", q, Q, {})  # does not compose
    with pytest.raises(InputError):
        parse_expression("e(2)*a1", q, Q, {})
    with pytest.raises(InputError):
        parse_expression("2", q, Q, {})  # no path factor
    with pytest.raises(InputError):
        parse_expression("nope", q, Q, {})
    with pytest.raises(InputError):
        parse_expression("a1 -", q, Q, {})
    with pytest.raises(InputError):
        parse_expression("", q, Q, {})


def test_parse_path_rejects_combinations():
    af = load("two_cycle.alg")
    assert parse_path("a1*a2", af.quiver) == \
        af.quiver.path_from_arrow_names(["a1", "a2"])
    assert parse_path("e(2)", af.quiver) == af.quiver.trivial_path("2")
    with pytest.raises(InputError):
        parse_path("2*a1", af.quiver)


def test_field_lines():
    text = "field F 7\nvertex 1\narrow a : 1 -> 1\nrelation a*a\n"
    af = parse_algebra_text(text)
    assert af.field == Field.prime(7)
    with pytest.raises(InputError):
        parse_algebra_text("vertex 1\n")
    with pytest.raises(InputError):
        parse_algebra_text("field Z\nvertex 1\n")
    with pytest.raises(InputError):
        parse_algebra_text("field Q\nfield Q\nvertex 1\n")
    # override replaces the declared field
    af2 = parse_algebra_text("field Q\nvertex 1\narrow a : 1 -> 1\nrelation a*a\n",
                             field_override=Field.prime(5))
    assert af2.field == Field.prime(5)


def test_bad_lines_rejected():
    with pytest.raises(InputError):
        parse_algebra_text("field Q\nvertex 1\nfrobnicate x\n")
    with pytest.raises(InputError):
        parse_algebra_text("field Q\nvertex 1\narrow a 1 -> 1\n")
    with pytest.raises(InputError):
        parse_algebra_text("field Q\nvertex 1\narrow a : 1 -> 1\nparam a = 1\n")
    with pytest.raises(InputError):
        parse_algebra_text(
            "field Q\nvertex 1\narrow a : 1 -> 1\nparam q = 1\nparam q = 2\n")
    with pytest.raises(InputError):
        parse_algebra_text(
            "field Q\nvertex 1\narrow a : 1 -> 1\n"
            "cocycle f(a, a) = e(1)\ncocycle f(a, a) = a\n")


def test_missing_file():
    with pytest.raises(InputError):
        parse_algebra_file(data_path("missing.alg"))


def test_round_trip_all_fixtures():
    for name in ["dual_numbers.alg", "two_cycle.alg", "triangle.alg",
                 "quantum_plane.alg", "lambda_m2.alg"]:
        af = load(name)
        text = emit_algebra_text(af.field, af.quiver, af.relations,
                                 params=af.params, cocycle_pairs=af.cocycle_pairs,
                                 origins=af.origins)
        af2 = parse_algebra_text(text)
        assert af2.quiver == af.quiver
        assert [r.terms for r in af2.relations] == [r.terms for r in af.relations]
        assert af2.params == af.params
        assert {k: v.terms for k, v in af2.cocycle_pairs.items()} == \
            {k: v.terms for k, v in af.cocycle_pairs.items()}


def test_origin_comments_round_trip():
    text = ("field Q\nvertex 1\narrow a : 1 -> 1\n"
            "relation a*a  # origin: square-zero\n")
    af = parse_algebra_text(text)
    assert af.origins == ["square-zero"]
    out = emit_algebra_text(af.field, af.quiver, af.relations, origins=af.origins)
    assert "# origin: square-zero" in out
    assert parse_algebra_text(out).origins == ["square-zero"]


def test_emit_dot_golden():
    af = load("two_cycle.alg")
    expected = (
        'digraph G {\n'
        '  "1";\n'
        '  "2";\n'
        '  "1" -> "2" [label="a1"];\n'
        '  "2" -> "1" [label="a2"];\n'
        '}\n')
    assert emit_dot(af.quiver) == expected
    dashed = emit_dot(af.quiver, dashed_arrows={"a2"})
    assert '"2" -> "1" [label="a2", style=dashed];' in dashed


def test_module_file_round_trip():
    text = "dim 2\nact(a) = 0 0 ; 1 0\nact(t*e(1)) = 0 0 ; 1/2 0\n"
    mf = parse_module_text(text, Q)
    assert mf.dim == 2
    assert mf.actions["a"] == {0: {1: Fraction(1)}}
    assert mf.actions["t*e(1)"][0][1] == Fraction(1, 2)
    out = emit_module_text(mf.dim, mf.actions, Q)
    mf2 = parse_module_text(out, Q)
    assert mf2.dim == mf.dim and mf2.actions == mf.actions


def test_module_file_errors():
    with pytest.raises(InputError):
        parse_module_text("act(a) = 1\n", Q)
    with pytest.raises(InputError):
        parse_module_text("dim 2\nact(a) = 1 0\n", Q)  # one row only
    with pytest.raises(InputError):
        parse_module_text("dim 2\nact(a) = 1 ; 0\n", Q)  # short rows
    with pytest.raises(InputError):
        parse_module_text("dim 1\nact(a) = 1\nact(a) = 0\n", Q)


def test_int_and_fraction_coefficients_print_alike():
    # over Q an integer scalar may be an int or a Fraction with denominator 1
    ints = [("a", 1), ("b", -1), ("c", 2), ("d", -3), ("e", Fraction(1, 2))]
    fractions = [("a", Fraction(2, 2)), ("b", Fraction(-1)), ("c", Fraction(4, 2)),
                 ("d", Fraction(-6, 2)), ("e", Fraction(1, 2))]
    assert signed_sum_str(ints, Q) == signed_sum_str(fractions, Q) == "a - b + 2*c - 3*d + 1/2*e"


def test_cocycle_key_paths_are_parsed_once(monkeypatch):
    from quivdeform import fileio
    text = ("field Q\nvertex 1\narrow x : 1 -> 1\nrelation x*x*x\n"
            "cocycle f(x, x) = x\ncocycle f(x, x*x) = e(1)\n"
            "cocycle f(x*x, x) = e(1)\ncocycle f(x*x, x*x) = x\n")
    seen = []
    monkeypatch.setattr(fileio, "parse_path", lambda t, q: seen.append(t) or parse_path(t, q))
    af = parse_algebra_text(text)
    assert sorted(seen) == [" x", " x*x", "x", "x*x"]
    x, xx = af.quiver.path_from_arrow_names(["x"]), af.quiver.path_from_arrow_names(["x", "x"])
    assert list(af.cocycle_pairs) == [(x, x), (x, xx), (xx, x), (xx, xx)]
