import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path, load
from oracles import (ACT_RE, ARROW_RE, COCYCLE_RE, NAME_RE, NEGATIVE_NUMBER_RE, PARAM_RE,
                     SCALAR_RE, TRIVIAL_RE, ParseError, regex_parse_algebra_text,
                     regex_parse_module_text, regex_strip_comment)
from quivdeform import cli, fileio
from quivdeform.errors import InputError
from quivdeform.fields import Field
from quivdeform.fileio import (emit_algebra_text, emit_dot, emit_module_text,
                               parse_algebra_file, parse_algebra_text,
                               parse_expression, parse_module_text, parse_path,
                               signed_sum_str)
from quivdeform.quiver import Quiver

Q = Field.rationals()
FIXTURE_NAMES = ("dual_numbers.alg", "two_cycle.alg", "triangle.alg", "quantum_plane.alg",
                 "lambda_m2.alg", "cube_multiples.alg")


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


def refusal(parse, *args):
    with pytest.raises(InputError) as info:
        parse(*args)
    return str(info.value)


def test_bad_lines_rejected():
    head = "field Q\nvertex 1\narrow a : 1 -> 1\n"
    assert refusal(parse_algebra_text, "field Q\nvertex 1\nfrobnicate x\n") == \
        "line 3: unknown directive 'frobnicate'"
    assert refusal(parse_algebra_text, "field Q\nvertex 1\narrow a 1 -> 1\n") == \
        "line 3: malformed arrow line"
    assert refusal(parse_algebra_text, head + "param a = 1\n") == \
        "line 4: param name 'a' shadows another token"
    assert refusal(parse_algebra_text, head + "param q = 1\nparam q = 2\n") == \
        "line 5: duplicate param 'q'"
    assert refusal(parse_algebra_text,
                   head + "cocycle f(a, a) = e(1)\ncocycle f(a, a) = a\n") == \
        "line 5: duplicate cocycle pair"


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
    assert refusal(parse_module_text, "act(a) = 1\n", Q) == "line 1: act before dim"
    assert refusal(parse_module_text, "dim 2\nact(a) = 1 0\n", Q) == \
        "line 2: 1 rows, expected 2"
    assert refusal(parse_module_text, "dim 2\nact(a) = 1 ; 0\n", Q) == \
        "line 2: row of width 1, expected 2"
    assert refusal(parse_module_text, "dim 1\nact(a) = 1\nact(a) = 0\n", Q) == \
        "line 3: duplicate act(a)"


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


# ------------------------------------------- the reader against the regexes

# Lines that break a reading which only looks like the regular
# expressions of tests/oracles.py: the lazy groups of the cocycle and act
# lines, a second "#", a greedy arrow name, Unicode word characters and
# digits (`\w` is str.isalnum or `_`, `\d` is str.isdecimal, so `٣` is a
# digit and `²` is not), scalars cut short, doubled signs and tabs.
ALGEBRA_LINES = [
    "cocycle f(a, e(1)) = a", "cocycle f(a1, e(1)) = a1", "cocycle f(a1,a2)=e(1)",
    "cocycle f(a1, a2) = ", "cocycle f(a1 a2) = a1", "cocycle f(a1, a2)) = a1",
    "cocycle f(a1, (a2) = a1", "cocycle f(a1, a2) == a1", "cocycle f (a1, a2) = e(1)",
    "cocycle g(a1, a2) = e(1)", "cocycle f(a1, a2, a1) = e(1)", "cocycle f(a1, a2)x) = e(1)",
    "cocycle f(a1, a2) =\te(1)", "cocycle f(a1, a2*a1)= 1/2*a1 - -3*a1", "cocycle f(,) = a",
    "cocycle f(x, x*x) = 2*e(1) - x*x", "cocycle f(a, a) = e(1)", "cocycle f(a, 2*a) = a",
    "cocycle f(e(1), a) = a", "cocycle f(a, a) = q*e(1)",
    "relation a1*a2 # note # origin: x", "relation a*a # note # origin: x",
    "relation a*a #origin:x", "relation a*a # origin:", "relation a*a # origin: \t",
    "relation a*a # origin: # origin: y", "relation a*a #  origin:\tstep-1 more",
    "relation a*a # Origin: x", "relation a*a ## origin: z", "relation a*a#origin:#",
    "arrow a:b : 1 -> 2", "arrow a:b : 1 -> 1", "arrow b : 1 -> 1", "arrow b:1->1",
    "arrow b : 1->->1", "arrow b : 1 -> 1 1", "arrow b 1 -> 1", "arrow β : 1 -> 1",
    "arrow b^ : 1 -> 1", "arrow _b1 : 1 -> 1", "arrow 1b : 1 -> 1", "arrow b\t:\t1\t->\t1",
    "arrow b : 1 - > 1", "arrow b : : 1 -> 1", "arrow b :1 ->1", "arrow b: 1 -> 1 -> 1",
    "arrow b : 1 -> 7", "arrow b : 1 ->", "arrow : 1 -> 1", "arrow b:",
    "param p = 2", "param p=2", "param p = 1/2", "param p = --1", "param p = 1/",
    "param p = /2", "param p = ٣", "param p = ²", "param pé = 3", "param p² = 3",
    "param ٣ = 1", "param 12 = 1", "param a = 1", "param 1 = 2", "param p = 1 2",
    "param p =", "param p-r = 1", "param p = 1_0", "param p = +1", "param p = 1/0",
    "param p = 2/7", "param p\t=\t-3", "param = 1", "param p == 1",
    "relation 2*a*a - ٣*a*a", "relation ²*a*a", "relation a*a - a*a + a*a",
    "relation --a*a", "relation a*a -", "relation 1/*a*a", "relation /2*a*a",
    "relation a**a", "relation e()*a", "relation e(1)*a*a", "relation e(3)*a",
    "relation e(1)(2)", "relation 0*a*a", "relation 7*a*a", "relation -1/2*a*a + a*a*1/2",
    "relation 2", "relation", "relation +", "relation a*-a", "relation q*a*a",
    "relation e(1)*e(1)", "relation e(١)*a", "relation a1*a2*a1 - a1*a2*a1",
    "field F 7", "field Q", "field F x", "field F 4", "field  F   5",
    "vertex 1", "vertex e(1)", "frobnicate x", "#", "  # origin: x", "\t",
]
MODULE_LINES = [
    "act(a)b) = 0 0 ; 0 0", "act(a) = 0 0 ; 1 0", "act (a) = 0 0 ; 1 0",
    "act(a)=0 0;1 0", "act(a) == 0 0 ; 0 0", "act(a ) = 1 0 ; 0 1",
    "act(e(1)) = 1 0 ; 0 1", "act() = 0 0 ; 0 0", "act(a) = 1/2 0 ; ٣ 0",
    "act(a) = ² 0 ; 0 0", "act(a) 0 0 ; 0 0", "act(a) = 0 0 ; 0 0 # origin: x",
    "act(a) = 0 0 ; 0\t0", "actx(a) = 0 0 ; 0 0", "act", "act(a) = 0 0 ; 0 0 ;",
    "act(a)) = 0 0 ; 0 0", "act(a) =", "dim 2", "dim -1", "dim x", "act(b) = --1 0 ; 0 0",
]
MODULE_TEXT = "dim 2\nact(e(1)) = 1 0 ; 0 1\nact(a) = 0 0 ; 1 0\n"


def one_line_edits(text, lines):
    """text with each line of lines appended, and in place of each of its
    own lines."""
    own = text.splitlines()
    for line in lines:
        yield text + line + "\n"
        for k in range(len(own)):
            yield "\n".join(own[:k] + [line] + own[k + 1:]) + "\n"


def read_algebra(text, fld):
    try:
        af = parse_algebra_text(text, fld)
    except InputError as e:
        return "refused", str(e)
    return repr((af.field, af.quiver.vertices, af.quiver.arrows,
                 [list(r.terms.items()) for r in af.relations], list(af.params.items()),
                 [(k, list(v.terms.items())) for k, v in af.cocycle_pairs.items()],
                 af.origins))


def read_algebra_by_regex(text, fld):
    try:
        field, quiver, relations, params, pairs, origins = regex_parse_algebra_text(
            text, Quiver, Field, fld)
    except (ParseError, InputError) as e:
        return "refused", str(e)
    return repr((field, quiver.vertices, quiver.arrows,
                 [list(r.items()) for r in relations], list(params.items()),
                 [(k, list(v.items())) for k, v in pairs.items()], origins))


@pytest.mark.parametrize("fld", [None, Field.prime(7)], ids=["declared", "F7"])
def test_algebra_reader_agrees_with_the_regex_reader(fld):
    # the same file, value for value and in the same order, or the same
    # refusal, on every fixture with each line of the corpus added or put
    # in place of one of its lines
    refused = 0
    for name in FIXTURE_NAMES:
        with open(data_path(name), encoding="utf-8") as fh:
            text = fh.read()
        for edited in one_line_edits(text, ALGEBRA_LINES):
            want = read_algebra_by_regex(edited, fld)
            assert read_algebra(edited, fld) == want, edited
            refused += want[0] == "refused"
    assert 0 < refused


def read_module(text, fld, by_regex=False):
    try:
        if by_regex:
            return regex_parse_module_text(text, fld)
        mf = parse_module_text(text, fld)
    except (ParseError, InputError) as e:
        return "refused", str(e)
    return mf.dim, mf.actions


@pytest.mark.parametrize("fld", [Q, Field.prime(7)], ids=repr)
def test_module_reader_agrees_with_the_regex_reader(fld):
    for edited in one_line_edits(MODULE_TEXT, MODULE_LINES):
        assert read_module(edited, fld) == read_module(edited, fld, by_regex=True), edited


def test_character_classes_are_the_regex_classes():
    # over every code point: a space (str.split), a word character and a
    # digit as the readers test them, against \s, \w and \d
    chars = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)
    assert {c for c in chars if not fileio._is_run(c)} == set(re.findall(r"\s", chars))
    assert {c for c in chars if fileio._is_word(c)} == set(re.findall(r"\w", chars))
    assert {c for c in chars if fileio._is_scalar(c)} == set(re.findall(r"\d", chars))


# characters around which the grammar turns, spaces, and letters, digits
# and signs outside ASCII
TRICKY = st.text(st.sampled_from("af_^1٣²é()=,:->#/* \torigin"), max_size=14)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(TRICKY, TRICKY)
def test_token_readers_match_the_patterns(left, right):
    text = (left + right).strip()
    for read, pattern in ((fileio._arrow_fields, ARROW_RE), (fileio._param_fields, PARAM_RE),
                          (fileio._cocycle_fields, COCYCLE_RE)):
        m = pattern.match(text)
        assert read(text) == (m.groups() if m else None), (read.__name__, text)
    m = ACT_RE.match(text)
    assert (fileio._closed_by_equals(text[4:]) if text.startswith("act(") else None) == \
        (m.groups() if m else None), text
    assert fileio._strip_comment(left + right) == regex_strip_comment(left + right)
    for token in (left, right, "".join(text.split())):
        assert fileio._is_scalar(token) == bool(SCALAR_RE.match(token)), token
        assert fileio._is_arrow_name(token) == bool(NAME_RE.match(token)), token
        m = TRIVIAL_RE.match(token)
        trivial = token[2:-1] if token[:2] == "e(" and token[-1:] == ")" else ""
        assert (trivial if fileio._is_word(trivial) else None) == (m and m.group(1)), token


@pytest.mark.parametrize("token", [
    "-1", "-12", "-1.5", "-.5", "-1.", "-.", "--1", "-٣", "-²", "-1e3", "-1.2.3",
    "-x", "-1 2", "-1.٣", "-0", "-00.00", "-+1", "-1_0", "-1a"])
def test_negative_numbers_match_the_pattern(token):
    # a token that names no option is a value exactly when it is a negative
    # number or holds a space
    names = ["--field", "--help", "-h"]
    value = bool(NEGATIVE_NUMBER_RE.fullmatch(token)) or " " in token
    assert (cli._option_of(token, names, "hh") is None) == value
