import errno
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from quivdeform import cli, deform, hochschild, linalg, modcat, morita, quiver
from quivdeform.cli import run
from quivdeform.deform import DeformedAlgebra
from quivdeform.fields import Field
from quivdeform.fileio import (emit_algebra_text, emit_module_text,
                               parse_algebra_file, parse_algebra_text)
from quivdeform.hochschild import (FullCochain, cochain_from_pairs,
                                   cochain_from_paths, full_differential)
from quivdeform.linalg import deformation_witness
from quivdeform.modcat import LeftModule, regular_module
from quivdeform.quiver import FreeElement, compute_basis

from conftest import (clifford_cocycle, cycle_cocycle, cyclic_quiver_text, data_path,
                      every_coordinate_coboundary, exterior_text, load_basis,
                      truncated_polynomial_text, write_algebra)
from oracles import (brute_associator, brute_deformed_table, brute_differential,
                     build_parser)


def lines_of(capsys):
    out = capsys.readouterr().out
    return out, out.splitlines()


# ---------------------------------------------------------------- basis, hh


def test_basis_lists_monomials(capsys):
    assert run(["basis", data_path("lambda_m2.alg")]) == 0
    _, lines = lines_of(capsys)
    assert lines[0] == "dim A = 8"
    assert lines[1:] == ["e(1)", "e(2)", "u", "v", "al", "v*al", "al*u", "v*al*u"]


def test_field_override_with_a_large_prime(capsys):
    # 2^61 - 1 is prime; trial division took longer than any timeout
    assert run(["basis", data_path("dual_numbers.alg"),
                "--field", "F%d" % (2 ** 61 - 1)]) == 0
    assert lines_of(capsys)[1] == ["dim A = 2", "e(1)", "a"]
    # 2^61 + 1 = 3 * 768614336404564651
    assert run(["basis", data_path("dual_numbers.alg"),
                "--field", "F%d" % (2 ** 61 + 1)]) == 2
    assert "prime" in capsys.readouterr().err
    # the Mersenne prime 2^89 - 1 lies above the bound of the primality test
    assert run(["basis", data_path("dual_numbers.alg"),
                "--field", "F%d" % (2 ** 89 - 1)]) == 2
    assert "3317044064679887385961981" in capsys.readouterr().err


def test_basis_missing_file_exits_2(capsys):
    assert run(["basis", data_path("missing.alg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_basis_above_the_size_limit_exits_1(tmp_path, capsys):
    # k<a, b>/(a^2) has a standard monomial for every word without aa,
    # about 1.6^n of length n and 3.5 million below length 30: refused at
    # the default --max-degree once the count passes quiver.MAX_BASIS_DIM
    path = tmp_path / "free_ab.alg"
    path.write_text("field Q\nvertex 1\narrow a : 1 -> 1\narrow b : 1 -> 1\n"
                    "relation a*a\n")
    assert run(["basis", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: SizeLimitExceeded: more than 4096 standard monomials below length 30\n"


def test_field_override(capsys):
    assert run(["basis", data_path("lambda_m2.alg"), "--field", "F5"]) == 0
    _, lines = lines_of(capsys)
    assert lines[0] == "dim A = 8"
    assert run(["basis", data_path("lambda_m2.alg"), "--field", "R"]) == 2


def test_hh_golden(capsys):
    assert run(["hh", data_path("two_cycle.alg")]) == 0
    _, lines = lines_of(capsys)
    assert lines == ["dim Z^2 = 3", "dim B^2 = 2", "dim HH^2 = 1"]
    assert run(["hh", data_path("triangle.alg")]) == 0
    _, lines = lines_of(capsys)
    assert lines[-1] == "dim HH^2 = 1"


# ---------------------------------------------------------- check-cocycle


BROKEN_COCYCLE = """\
field Q
vertex 1 2
arrow a1 : 1 -> 2
arrow a2 : 2 -> 1
relation a1*a2
cocycle f(a1, a2) = e(1)
"""


# the two-cycle cocycle with two of its four values dropped
TWO_VALUES = BROKEN_COCYCLE.replace("a1*a2\n", "a1*a2\ncocycle f(a2*a1, a2*a1) = a2*a1\n")


def first_nonzero_tuple(basis, f):
    """d^2 f != 0 at the first tuple (r, j, k) in row order where the
    oracle's full bar differential of f is nonzero, as the cocycle lines
    print it: r runs over the rows of kQ/I, its vertex idempotents and
    arrows (the basis paths of length at most 1), then j and k."""
    rows = {i for i, p in enumerate(basis.paths) if len(p) <= 2}
    df = brute_differential(basis.dim, basis.table, basis.field, f.table, 2)
    first = min(key for key in df if key[0] in rows)
    return "d^2 f != 0 at (%s)" % ", ".join(basis.labels[i] for i in first)


def test_hh_and_check_cocycle_need_admissible_relations(capsys):
    # the refusal names the first pair of radical paths whose product
    # has a component at a vertex idempotent
    for command in ("hh", "check-cocycle"):
        assert run([command, data_path("lambda_m2.alg")]) == 2, command
        err = capsys.readouterr().err
        assert "admissible" in err
        assert "u * v has a component at e(1)" in err


def test_check_cocycle_pass(capsys):
    assert run(["check-cocycle", data_path("dual_numbers.alg")]) == 0
    out, _ = lines_of(capsys)
    assert "cocycle: PASS" in out


def test_check_cocycle_fail(tmp_path, capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text(BROKEN_COCYCLE)
    assert run(["check-cocycle", str(bad)]) == 1
    out, _ = lines_of(capsys)
    assert "cocycle: FAIL" in out
    assert "overall: FAIL" in out


@pytest.mark.parametrize("text", [BROKEN_COCYCLE, TWO_VALUES], ids=["one-value", "two-values"])
def test_cocycle_fail_lines_name_the_first_tuple_where_d_f_is_nonzero(
        text, tmp_path, capsys, monkeypatch):
    # check-cocycle and verify-deform name the first tuple of d f in row
    # order, which the full bar differential of the oracle finds nonzero;
    # verify-deform takes it, for its cocycle and its associativity line,
    # from the one pass of the engine it makes
    bad = tmp_path / "broken.alg"
    bad.write_text(text)
    af = parse_algebra_text(text)
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    at = first_nonzero_tuple(basis, f)
    calls = []
    monkeypatch.setattr(hochschild, "deformation_witness",
                        lambda *args: calls.append(args) or deformation_witness(*args))
    assert run(["check-cocycle", str(bad)]) == 1
    _, lines = lines_of(capsys)
    assert lines[0] == "cocycle: FAIL  %d table entries, %s" % (len(f.table), at)
    assert run(["verify-deform", str(bad)]) == 1
    _, lines = lines_of(capsys)
    assert lines[:2] == ["cocycle: FAIL  " + at, "associativity: FAIL  (xy)z != x(yz) at "
                         "(x, y, z) = " + at.split(" at ", 1)[1]]
    assert len(calls) == 2


# ------------------------------------------------------------------ deform


DUAL_PRESENTATION = """\
# presentation of the deformed algebra (dim 4)
field Q
vertex 1
arrow a^ : 1 -> 1
relation a^*a^*a^*a^  # origin: square-zero:1
"""


def test_deform_dual_numbers_golden(capsys):
    assert run(["deform", data_path("dual_numbers.alg")]) == 0
    out, _ = lines_of(capsys)
    assert out == DUAL_PRESENTATION


# the other fixtures; test_deform_dual_numbers_golden has the dual numbers
DEFORM_GOLDEN = {
    "two_cycle": """\
# presentation of the deformed algebra (dim 10)
field Q
vertex 1 2
arrow a1^ : 1 -> 2
arrow a2^ : 2 -> 1
arrow e^2 : 2 -> 2
relation a1^*a2^*a1^*a2^  # origin: square-zero:1
relation e^2*e^2  # origin: square-zero:2
relation -a1^*e^2 + a1^*a2^*a1^  # origin: commute:a1
relation e^2*a2^ - a2^*a1^*a2^  # origin: commute:a2
""",
    "triangle": """\
# presentation of the deformed algebra (dim 12)
field Q
vertex 1 2 3
arrow a1^ : 1 -> 2
arrow a2^ : 2 -> 3
arrow a3^ : 1 -> 3
arrow e^1 : 1 -> 1
arrow e^2 : 2 -> 2
arrow e^3 : 3 -> 3
relation e^1*e^1  # origin: square-zero:1
relation e^2*e^2  # origin: square-zero:2
relation e^3*e^3  # origin: square-zero:3
relation -a1^*e^2 + e^1*a1^  # origin: commute:a1
relation -a2^*e^3 + e^2*a2^  # origin: commute:a2
relation -a3^*e^3 + e^1*a3^  # origin: commute:a3
relation a1^*a2^ - a3^*e^3  # origin: lift:0
""",
    "quantum_plane": """\
# presentation of the deformed algebra (dim 8)
field Q
vertex 1
arrow a^ : 1 -> 1
arrow b^ : 1 -> 1
arrow e^1 : 1 -> 1
relation e^1*e^1  # origin: square-zero:1
relation -a^*e^1 + e^1*a^  # origin: commute:a
relation -b^*e^1 + e^1*b^  # origin: commute:b
relation a^*a^  # origin: lift:0
relation b^*b^  # origin: lift:1
relation a^*b^ + b^*a^ - b^*a^*e^1  # origin: lift:2
""",
}


def test_deform_golden(capsys):
    for name, text in DEFORM_GOLDEN.items():
        assert run(["deform", data_path(name + ".alg")]) == 0, name
        assert capsys.readouterr().out == text, name


def test_deform_output_roundtrips_and_doubles(capsys):
    for name in ("dual_numbers", "two_cycle", "triangle", "quantum_plane"):
        af, basis = load_basis(name + ".alg")
        assert run(["deform", data_path(name + ".alg")]) == 0
        out, _ = lines_of(capsys)
        back = parse_algebra_text(out)
        basis_f = compute_basis(back.quiver, back.relations, back.field, 30)
        assert basis_f.dim == 2 * basis.dim


def test_deform_is_deterministic(capsys):
    assert run(["deform", data_path("triangle.alg")]) == 0
    first, _ = lines_of(capsys)
    assert run(["deform", data_path("triangle.alg")]) == 0
    second, _ = lines_of(capsys)
    assert first == second


TWO_CYCLE_DOT = """\
digraph Qf {
  "1";
  "2";
  "1" -> "2" [label="a1^"];
  "2" -> "1" [label="a2^"];
  "2" -> "2" [label="e^2", style=dashed];
}
"""


def test_deform_dot_golden(tmp_path, capsys):
    out_alg = tmp_path / "qf.alg"
    out_dot = tmp_path / "qf.dot"
    assert run(["deform", data_path("two_cycle.alg"),
                "-o", str(out_alg), "--dot", str(out_dot)]) == 0
    assert capsys.readouterr().out == ""
    assert out_dot.read_text() == TWO_CYCLE_DOT
    back = parse_algebra_text(out_alg.read_text())
    assert [a[0] for a in back.quiver.arrows] == ["a1^", "a2^", "e^2"]


def test_deform_dot_triangle_three_dashed_loops(tmp_path):
    out_dot = tmp_path / "qf.dot"
    assert run(["deform", data_path("triangle.alg"),
                "-o", str(out_dot.with_suffix(".alg")), "--dot", str(out_dot)]) == 0
    dashed = [l for l in out_dot.read_text().splitlines() if "style=dashed" in l]
    assert len(dashed) == 3
    for v in ("1", "2", "3"):
        assert '"%s" -> "%s" [label="e^%s", style=dashed];' % (v, v, v) in dashed[int(v) - 1]


def test_deform_interreduce_same_ideal(capsys):
    af, basis = load_basis("two_cycle.alg")
    assert run(["deform", data_path("two_cycle.alg")]) == 0
    raw = parse_algebra_text(lines_of(capsys)[0])
    assert run(["deform", data_path("two_cycle.alg"), "--interreduce"]) == 0
    red = parse_algebra_text(lines_of(capsys)[0])
    basis_raw = compute_basis(raw.quiver, raw.relations, raw.field, 30)
    basis_red = compute_basis(red.quiver, red.relations, red.field, 30)
    for r in raw.relations:
        assert basis_red.normal_form(
            FreeElement(red.quiver, red.field, dict(r.terms))) == {}
    for r in red.relations:
        assert basis_raw.normal_form(
            FreeElement(raw.quiver, raw.field, dict(r.terms))) == {}


def _truncated_with_cocycle(n):
    """k[x]/(x^n) with the cocycle of x^n = t: f(x^i, x^j) = x^(i+j-n)."""
    def word(k):
        return "e(1)" if k == 0 else "*".join(["x"] * k)
    lines = ["field Q", "vertex 1", "arrow x : 1 -> 1", "relation " + word(n)]
    for i in range(1, n):
        for j in range(1, n):
            if i + j >= n:
                lines.append("cocycle f(%s, %s) = %s" % (word(i), word(j), word(i + j - n)))
    return "\n".join(lines) + "\n"


def test_deform_max_degree_leaves_lifted_multiples(tmp_path, capsys):
    # the lifted multiples u*rho*v run up to length 3n - 2 = 13, past
    # --max-degree 6; u and v range over the finite basis, so the cap
    # must not prune them
    path = tmp_path / "trunc5.alg"
    path.write_text(_truncated_with_cocycle(5))
    assert run(["deform", "--max-degree", "6", str(path)]) == 0
    low, lines = lines_of(capsys)
    assert lines[-1] == "relation %s  # origin: square-zero:1" % "*".join(["x^"] * 10)
    assert run(["deform", "--max-degree", "12", str(path)]) == 0
    assert capsys.readouterr().out == low


def test_deform_rejects_non_cocycle(tmp_path, capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text(BROKEN_COCYCLE)
    assert run(["deform", str(bad)]) == 2
    assert "d^2 f" in capsys.readouterr().err


# ----------------------------------------------------------- verify-deform


def test_verify_deform_all_fixtures(capsys):
    for name in ("dual_numbers", "two_cycle", "triangle", "quantum_plane"):
        assert run(["verify-deform", data_path(name + ".alg")]) == 0, name
        out, _ = lines_of(capsys)
        assert "overall: PASS" in out


VERIFY_DEFORM = """\
cocycle: PASS  d^2 f = 0
associativity: PASS  all {dim}^3 basis triples
path-products: PASS  {paths} of {paths} basis paths multiply to (w, f^(w))
relation-identity: PASS  {rels} of {rels} relations land on (0, f^(rho))
image-condition: PASS  {image}
dimension: PASS  dim kQ_f/I_f = {dim}, expected {dim}
relations-vanish: PASS  {gens} of {gens} generators evaluate to zero
independence: PASS  rank {dim} of {dim} evaluated candidates
overall: PASS
"""


def verify_deform_golden(dim, paths, rels, gens,
                         image="holds for the given representative"):
    """The passing report for A_f of dimension dim, with paths basis paths
    and rels relations in A and gens generators in the presentation."""
    return VERIFY_DEFORM.format(dim=dim, paths=paths, rels=rels, gens=gens, image=image)


def test_verify_deform_golden(capsys):
    for name, sizes in (("dual_numbers", (4, 2, 1, 1)), ("two_cycle", (10, 5, 1, 4)),
                        ("triangle", (12, 6, 1, 7)), ("quantum_plane", (8, 4, 3, 6))):
        assert run(["verify-deform", data_path(name + ".alg")]) == 0, name
        assert capsys.readouterr().out == verify_deform_golden(*sizes), name


@pytest.mark.parametrize("command", ["deform", "verify-deform"])
def test_lifted_multiples_golden(command, capsys):
    # the idempotent of k[x]/(x^3) is reached only through lifted
    # multiples u*rho*v of x*x*x, which join the relations as lift:1 and
    # lift:2; the goldens were captured before hat_f of the multiples was
    # read off hat_f of the relation
    assert run([command, data_path("cube_multiples.alg")]) == 0
    golden = "%s_cube_multiples.txt" % command.replace("-", "_")
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_verify_deform_needs_admissible_relations(capsys):
    # relations like u*v - e(1) put trivial paths into radical products;
    # the reduced complex is not defined there and the input is refused
    assert run(["verify-deform", data_path("lambda_m2.alg")]) == 2
    assert "admissible" in capsys.readouterr().err


def test_verify_deform_json_lines(capsys):
    assert run(["verify-deform", data_path("two_cycle.alg"),
                "--report", "json-lines"]) == 0
    _, lines = lines_of(capsys)
    records = [json.loads(line) for line in lines]  # every line is one JSON object
    assert [r["name"] for r in records] == [
        "cocycle", "associativity", "path-products", "relation-identity",
        "image-condition", "dimension", "relations-vanish", "independence"]
    for r in records:
        assert sorted(r) == ["detail", "name", "ok"]
        assert r["ok"] is True
        assert isinstance(r["detail"], str) and r["detail"]


def plant_in_evaluation(monkeypatch, planted):
    """Make DeformedAlgebra.evaluation send each free element elem over a
    quiver to planted(quiver, elem, evaluate), where evaluate is the
    evaluation it had."""
    original = DeformedAlgebra.evaluation

    def evaluation(self, quiver):
        evaluate = original(self, quiver)
        return lambda elem: planted(quiver, elem, evaluate)
    monkeypatch.setattr(DeformedAlgebra, "evaluation", evaluation)


def verify_deform_line(capsys, name, check):
    assert run(["verify-deform", data_path(name + ".alg")]) == 1
    return next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith(check + ": "))


def test_path_products_fail_line_names_the_first_failing_path(monkeypatch, capsys):
    # the paths a2 and a2*a1 of Q evaluate one unit off, at e(1)
    def planted(quiver, elem, evaluate):
        value = evaluate(elem)
        names = [quiver.path_str(p) for p in elem.terms]
        if quiver.arrows[0][0] == "a1" and names in (["a2"], ["a2*a1"]):
            value = {**value, 0: value.get(0, 0) + 1}
        return value
    plant_in_evaluation(monkeypatch, planted)
    assert verify_deform_line(capsys, "two_cycle", "path-products") == (
        "path-products: FAIL  3 of 5 basis paths multiply to (w, f^(w)); "
        "the first that does not is a2")


def test_relation_identity_fail_line_names_the_first_failing_relation(monkeypatch,
                                                                      capsys):
    # the relations b*b and a*b + b*a of Q evaluate to e(1) off their value
    def planted(quiver, elem, evaluate):
        value = evaluate(elem)
        names = {quiver.path_str(p) for p in elem.terms}
        if quiver.arrows[0][0] == "a" and names in ({"b*b"}, {"a*b", "b*a"}):
            value = {**value, 0: value.get(0, 0) + 1}
        return value
    plant_in_evaluation(monkeypatch, planted)
    assert verify_deform_line(capsys, "quantum_plane", "relation-identity") == (
        "relation-identity: FAIL  1 of 3 relations land on (0, f^(rho)); "
        "the first that does not is b*b")


def test_independence_fail_line_names_the_first_dependent_candidate(monkeypatch, capsys):
    # the hatted arrow a2^ evaluates to the value of a1^, the candidate
    # before it
    def planted(quiver, elem, evaluate):
        if [quiver.path_str(p) for p in elem.terms] == ["a2^"]:
            elem = FreeElement.from_path(quiver, elem.field, quiver.arrow_path("a1^"))
        return evaluate(elem)
    plant_in_evaluation(monkeypatch, planted)
    assert verify_deform_line(capsys, "two_cycle", "independence") == (
        "independence: FAIL  rank 9 of 10 evaluated candidates; "
        "the first in the span of the earlier ones is a2^")


def shifted_two_cycle(tmp_path):
    """The two-cycle algebra file with its cocycle moved by the coboundary
    of e(2) at a2*a1; the image condition fails for the moved cocycle."""
    af, basis = load_basis("two_cycle.alg")
    q = af.quiver
    g = cochain_from_paths(basis, 1, {(q.path_from_arrow_names(["a2", "a1"]),):
                                      basis.element_from_path(q.trivial_path("2"))})
    shifted = cochain_from_pairs(basis, af.cocycle_pairs) + full_differential(g, basis)
    pairs = {tuple(basis.paths[i] for i in key): basis.to_free(vec)
             for key, vec in shifted.table.items()}
    path = tmp_path / "shifted.alg"
    path.write_text(emit_algebra_text(af.field, af.quiver, af.relations,
                                      cocycle_pairs=pairs))
    return path


def test_verify_deform_checks_each_cocycle_once(tmp_path, capsys, monkeypatch):
    # the cocycle check and the image condition of a cochain are computed
    # once and passed on, not redone by the presentation and its checks;
    # every cocycle check, is_cocycle's too, goes through cocycle_witness
    from quivdeform import deform, hochschild
    seen = {"cocycle_witness": [], "check_image_condition": []}

    def counted(name, fn):
        def wrapper(*args):
            f = args[0] if name == "cocycle_witness" else args[1]
            seen[name].append(f)
            return fn(*args)
        return wrapper

    originals = {"cocycle_witness": hochschild.cocycle_witness,
                 "check_image_condition": deform.check_image_condition}
    for module in (cli, deform, hochschild):
        for name, fn in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, fn))
    assert run(["verify-deform", data_path("two_cycle.alg")]) == 0
    assert "image-condition: PASS  holds for the given representative" in capsys.readouterr().out
    assert [len(v) for v in seen.values()] == [1, 1]

    # when the representative is replaced, each of the two cocycles
    # involved (the given one and the new one) is proved once; their
    # difference is decided on the small complex, which proves nothing more
    seen = {name: [] for name in seen}
    assert run(["verify-deform", str(shifted_two_cycle(tmp_path))]) == 0
    assert ("image-condition: PASS  restored by a cohomologous representative"
            in capsys.readouterr().out)
    assert [len(v) for v in seen.values()] == [2, 2]
    for cochains in seen.values():
        assert all(a != b for k, a in enumerate(cochains) for b in cochains[k + 1:])


def test_deform_golden_after_a_coboundary_shift(tmp_path, capsys):
    # the moved cocycle fails the image condition, so the presentation is
    # built for the representative of normalize_cocycle: here the file's
    # own cocycle, so the text is that of the unmoved two-cycle algebra
    path = shifted_two_cycle(tmp_path)
    assert run(["deform", str(path)]) == 0
    assert capsys.readouterr().out == DEFORM_GOLDEN["two_cycle"]
    assert run(["verify-deform", str(path)]) == 0
    assert capsys.readouterr().out == verify_deform_golden(
        10, 5, 1, 4, image="restored by a cohomologous representative")
    af = parse_algebra_file(str(path))
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    moved = cochain_from_pairs(basis, af.cocycle_pairs)
    pres = deform.build_presentation(basis, moved)
    af0, _ = load_basis("two_cycle.alg")
    assert pres.cocycle != moved
    assert pres.cocycle == cochain_from_pairs(basis, af0.cocycle_pairs)


def test_verify_deform_broken_cocycle(tmp_path, capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text(BROKEN_COCYCLE)
    assert run(["verify-deform", str(bad)]) == 1
    out, lines = lines_of(capsys)
    assert "cocycle: FAIL" in out
    assert "associativity: FAIL" in out
    assert "overall: FAIL" in out
    # the FAIL line names a basis triple of A_f, and the oracle finds
    # (xy)z != x(yz) there: the first triple in row order where the
    # oracle's d f is nonzero, read as the triple of the (x, 0) of A_f
    line = next(l for l in lines if l.startswith("associativity: FAIL"))
    named = re.search(r"at \(x, y, z\) = \((.+), (.+), (.+)\)$", line)
    assert named, line
    af = parse_algebra_text(BROKEN_COCYCLE)
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    labels = list(basis.labels)
    labels += ["t*" + label for label in labels]
    table = brute_deformed_table(basis.dim, basis.table, f.table)
    triple = tuple(labels.index(name) for name in named.groups())
    assert brute_associator(table, af.field, *triple)
    assert first_nonzero_tuple(basis, f) == "d^2 f != 0 at (%s)" % ", ".join(named.groups())


# ------------------------------------------------------------------- equiv


def test_equiv_with_itself(capsys):
    assert run(["equiv", data_path("two_cycle.alg"),
                data_path("two_cycle.alg")]) == 0
    out, _ = lines_of(capsys)
    assert "multiplicative: PASS" in out


def test_equiv_nonzero_class_against_zero(tmp_path, capsys):
    af, basis = load_basis("two_cycle.alg")
    stripped = tmp_path / "zero.alg"
    stripped.write_text(emit_algebra_text(af.field, af.quiver, af.relations))
    assert run(["equiv", data_path("two_cycle.alg"), str(stripped)]) == 1
    out, _ = lines_of(capsys)
    assert "cohomologous: FAIL" in out


def test_equiv_coboundary_shift(tmp_path, capsys):
    af, basis = load_basis("two_cycle.alg")
    q = af.quiver
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    g = cochain_from_paths(basis, 1, {(q.arrow_path("a1"),):
                           {basis.index[q.arrow_path("a1")]: basis.field.parse("2")}})
    shifted = f + full_differential(g, basis)
    pairs = {tuple(basis.paths[i] for i in key): basis.to_free(vec)
             for key, vec in shifted.table.items()}
    moved = tmp_path / "shifted.alg"
    moved.write_text(emit_algebra_text(af.field, af.quiver, af.relations,
                                       cocycle_pairs=pairs))
    assert run(["equiv", data_path("two_cycle.alg"), str(moved)]) == 0
    out, _ = lines_of(capsys)
    assert "cohomologous: PASS" in out
    assert "multiplicative: PASS" in out


def test_equiv_proves_each_cocycle_once(monkeypatch, capsys):
    # the cocycle-1 and cocycle-2 lines are the proofs of d f = 0 and
    # d g = 0; the class of f - g is decided on the small complex, which
    # proves no cocycle.  is_cocycle goes through cocycle_witness, so the
    # count sees every cocycle check
    checked = []
    real = hochschild.cocycle_witness

    def counted(f, basis):
        checked.append(f)
        return real(f, basis)

    for module in (deform, hochschild):
        monkeypatch.setattr(module, "cocycle_witness", counted)
    assert run(["equiv", data_path("two_cycle.alg"), data_path("two_cycle.alg")]) == 0
    assert "multiplicative: PASS" in lines_of(capsys)[0]
    assert len(checked) == 2
    assert checked[0] == checked[1] and not checked[0].is_zero()


@pytest.mark.parametrize("family", ["trunc20", "cyclic6_18"])
def test_equiv_on_large_shifted_cocycles(family, tmp_path, capsys):
    # k[x]/(x^20) and the cyclic quiver (6, 18) with the cocycle of a cycle
    # = t: f + d h, d h with every coordinate nonzero, is cohomologous to
    # f, and 2 f is not
    if family == "trunc20":
        af = parse_algebra_text(truncated_polynomial_text(20))
        cap = 42
        basis = compute_basis(af.quiver, af.relations, af.field, cap)
        f = cochain_from_pairs(basis, af.cocycle_pairs)
    else:
        af = parse_algebra_text(cyclic_quiver_text(6, 18))
        cap = 38
        basis = compute_basis(af.quiver, af.relations, af.field, cap)
        f = cycle_cocycle(basis, 18)
    base = write_algebra(tmp_path / "f.alg", basis, f)
    shifted = f + every_coordinate_coboundary(basis, random.Random(family))
    for other, code, line in (
            (shifted, 0, "cohomologous: PASS  the difference is a coboundary"),
            (f.scale(2), 1, "cohomologous: FAIL  the cohomology classes differ")):
        path = write_algebra(tmp_path / "other.alg", basis, other)
        assert run(["equiv", "--max-degree", str(cap), base, path]) == code
        assert line in lines_of(capsys)[1]


@pytest.mark.parametrize("field", [Field.rationals(), Field.prime(7)], ids=["Q", "F7"])
def test_a_completion_past_its_step_bound_ends_with_exit_1(field, tmp_path, capsys,
                                                           monkeypatch):
    # the exterior algebra on 3 letters with the Clifford cocycle plus a
    # coboundary with every coordinate nonzero: the completion of I_f that
    # the dimension line of verify-deform and deform --interreduce make
    # grows right-hand sides without end, and stops at the bound on the
    # terms it reduces
    af = parse_algebra_text(exterior_text(3), field_override=field)
    basis = compute_basis(af.quiver, af.relations, field, 30)
    f = clifford_cocycle(basis) + every_coordinate_coboundary(basis, random.Random(3))
    path = write_algebra(tmp_path / "shifted.alg", basis, f)
    monkeypatch.setattr(quiver, "MAX_REWRITE_TERMS", 300)
    for argv in (["verify-deform", path], ["deform", "--interreduce", path]):
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 2
        assert capsys.readouterr() == ("", "error: SizeLimitExceeded: completing the "
                                           "relations takes more than 300 terms of "
                                           "reduction\n")
    assert run(["deform", path]) == 0


def test_transfer_builds_the_left_maps_of_a_once(monkeypatch, capsys):
    # deformation_witness reads the left maps of an algebra that the
    # algebra keeps, so a passing transfer builds those of A once
    built = []
    real = linalg._left_maps

    def counted(table, field):
        built.append(table)
        return real(table, field)

    monkeypatch.setattr(linalg, "_left_maps", counted)
    assert run(["transfer", data_path("dual_numbers.alg"), "--matrix", "2"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    _, basis = load_basis("dual_numbers.alg")
    assert sum(table == basis.table for table in built) == 1


def test_equiv_cocycle_fail_lines_name_the_first_tuple_where_d_f_is_nonzero(tmp_path,
                                                                            capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text(TWO_VALUES)
    af = parse_algebra_text(TWO_VALUES)
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    at = first_nonzero_tuple(basis, cochain_from_pairs(basis, af.cocycle_pairs))
    good = data_path("two_cycle.alg")
    for files, details in (((str(bad), good), (at, "d^2 f = 0")),
                           ((good, str(bad)), ("d^2 f = 0", at))):
        assert run(["equiv", *files]) == 1
        lines = lines_of(capsys)[1]
        assert lines[:3] == ["same-algebra: PASS  field, quiver and relation ideal agree",
                             "cocycle-1: %s  %s" % ("FAIL" if "!=" in details[0] else "PASS",
                                                    details[0]),
                             "cocycle-2: %s  %s" % ("FAIL" if "!=" in details[1] else "PASS",
                                                    details[1])]
        assert lines[3:5] == ["cohomologous: FAIL  skipped", "multiplicative: FAIL  skipped"]


def test_equiv_different_algebras(capsys):
    assert run(["equiv", data_path("two_cycle.alg"),
                data_path("dual_numbers.alg")]) == 1
    out, _ = lines_of(capsys)
    assert "same-algebra: FAIL" in out


# ---------------------------------------------------------------- transfer


def test_transfer_corner_of_dual_numbers(capsys):
    # e(1) is the unit, so the corner is the whole algebra in new labels
    assert run(["transfer", data_path("dual_numbers.alg"),
                "--idempotent", "1"]) == 0
    out, lines = lines_of(capsys)
    assert lines[0] == "g(x1, x1) = x0"
    assert "overall: PASS" in out


def test_transfer_matrix_one_golden(capsys):
    assert run(["transfer", data_path("two_cycle.alg"), "--matrix", "1"]) == 0
    _, lines = lines_of(capsys)
    assert lines[:4] == [
        "g(E11*a1, E11*a2) = E11*e(1)",
        "g(E11*a1, E11*a2*a1) = E11*a1",
        "g(E11*a2*a1, E11*a2) = E11*a2",
        "g(E11*a2*a1, E11*a2*a1) = E11*a2*a1",
    ]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fixture, context, golden", [
    ("two_cycle.alg", ["--matrix", "2"], "transfer_two_cycle_matrix_2.txt"),
    ("dual_numbers.alg", ["--matrix", "3"], "transfer_dual_numbers_matrix_3.txt"),
    ("lambda_m2.alg", ["--idempotent", "1"], "transfer_lambda_m2_idempotent_1.txt"),
    ("two_cycle.alg", ["--idempotent", "1,2"], "transfer_two_cycle_idempotent_1_2.txt"),
])
def test_transfer_golden(fixture, context, golden, capsys):
    # the whole stdout, g and the four checks, on matrix and corner
    # contexts; g is read off the tables of P, Q and both pairings
    assert run(["transfer", data_path(fixture)] + context) == 0
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_transfer_matrix_two_checks_pass(capsys):
    assert run(["transfer", data_path("dual_numbers.alg"), "--matrix", "2",
                "--report", "json-lines"]) == 0
    _, lines = lines_of(capsys)
    # every line is a JSON object: the entries of g, then the checks
    objects = [json.loads(l) for l in lines]
    entries = [o for o in objects if "g" in o]
    checks = [o for o in objects if "g" not in o]
    assert objects == entries + checks
    assert all(set(o) == {"g", "value"} for o in entries)
    assert all(set(c) == {"name", "ok", "detail"} for c in checks)
    assert [c["name"] for c in checks] == \
        ["cocycle", "chain-map-phi", "chain-map-psi", "homotopy"]
    assert all(c["ok"] is True for c in checks)
    # the entries carry the same table as the text lines
    assert run(["transfer", data_path("dual_numbers.alg"), "--matrix", "2"]) == 0
    _, text = lines_of(capsys)
    table = ["g(%s) = %s" % (", ".join(o["g"]), o["value"]) for o in entries]
    assert table and table == [l for l in text if l.startswith("g(")]


def test_matrix_above_the_size_limit_exits_1(capsys, monkeypatch):
    # with the limit lowered to 4, M_2 of the dual numbers (dimension 8)
    # is refused from its estimate before any work
    from quivdeform import morita
    monkeypatch.setattr(morita, "MAX_MATRIX_DIM", 4)
    for command in ("transfer", "verify-morita"):
        assert run([command, data_path("dual_numbers.alg"), "--matrix", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: SizeLimitExceeded: M_2(A) would have dimension 8, "
                       "above the limit 4\n")


def test_transfer_zero_cocycle_prints_zero(capsys):
    assert run(["transfer", data_path("lambda_m2.alg"),
                "--idempotent", "1"]) == 0
    _, lines = lines_of(capsys)
    assert lines[0] == "g = 0"


def test_transfer_idempotent_not_full(capsys):
    assert run(["transfer", data_path("two_cycle.alg"),
                "--idempotent", "2"]) == 1
    assert "NotFullIdempotent" in capsys.readouterr().err


def test_transfer_bad_idempotent_flags(capsys):
    assert run(["transfer", data_path("two_cycle.alg"),
                "--idempotent", "9"]) == 2
    capsys.readouterr()
    assert run(["transfer", data_path("two_cycle.alg"),
                "--idempotent", "1,1"]) == 2
    capsys.readouterr()
    assert run(["transfer", data_path("two_cycle.alg"),
                "--matrix", "0"]) == 2


def test_transfer_fail_lines_name_a_differing_tuple(monkeypatch, capsys):
    # psi^2 with the non-cocycle f(e(1), a) = e(1) added: the chain-map-psi
    # and homotopy identities fail, and each FAIL line names a basis tuple
    # at which its two sides really differ
    af, basis = load_basis("dual_numbers.alg")
    one = basis.field.one
    real = morita.transfer_psi

    def broken_psi(ctx, g):
        out = real(ctx, g)
        if out.degree == 2:
            out = out + FullCochain(out.dim, 2, out.field, {(0, 1): {0: one}})
        return out

    monkeypatch.setattr(morita, "transfer_psi", broken_psi)
    assert run(["transfer", data_path("dual_numbers.alg"), "--matrix", "2"]) == 1
    _, lines = lines_of(capsys)
    assert "cocycle: PASS  d^2 g = 0 on B" in lines
    assert "chain-map-phi: PASS  d phi^2 f = phi^3 d f" in lines

    ctx = morita.matrix_context(basis, 2)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    g = morita.transfer_phi(ctx, f)
    back = broken_psi(ctx, g)
    df = full_differential(f, basis)
    sides = {
        "chain-map-psi": (full_differential(back, basis),
                          broken_psi(ctx, full_differential(g, ctx.b))),
        "homotopy": (morita.homotopy_h(ctx, df)
                     + full_differential(morita.homotopy_h(ctx, f), basis), f - back),
    }
    for name, (lhs, rhs) in sides.items():
        line = next(l for l in lines if l.startswith(name + ": FAIL"))
        named = re.search(r" != .* at \((.+)\)$", line)
        assert named, line
        key = tuple(basis.labels.index(label) for label in named.group(1).split(", "))
        assert lhs.value(key) != rhs.value(key), line


def test_transfer_cocycle_fail_line_names_the_first_tuple_of_d_g(tmp_path, capsys,
                                                                 monkeypatch):
    # transfer checks no cocycle condition on f, so a non-cocycle f gives
    # a g with d g != 0 on B; the cocycle line names the first tuple where
    # the oracle's full bar differential of g is nonzero, and d g is
    # computed once, for that line and both chain maps
    bad = tmp_path / "broken.alg"
    bad.write_text(TWO_VALUES)
    af = parse_algebra_text(TWO_VALUES)
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    ctx = morita.matrix_context(basis, 2)
    g = morita.transfer_phi(ctx, cochain_from_pairs(basis, af.cocycle_pairs))
    first = min(brute_differential(ctx.b.dim, ctx.b.table, ctx.field, g.table, 2))
    calls = []
    monkeypatch.setattr(hochschild, "full_differential",
                        lambda cochain, alg: calls.append(cochain)
                        or full_differential(cochain, alg))
    assert run(["transfer", str(bad), "--matrix", "2"]) == 1
    _, lines = lines_of(capsys)
    assert lines[-5:] == [
        "cocycle: FAIL  d^2 g != 0 on B at (%s)" % ", ".join(ctx.b.labels[i] for i in first),
        "chain-map-phi: PASS  d phi^2 f = phi^3 d f",
        "chain-map-psi: PASS  d psi^2 g = psi^3 d g",
        "homotopy: PASS  h^3 d f + d h^2 f = f - psi^2 phi^2 f",
        "overall: FAIL"]
    assert sum(cochain == g for cochain in calls) == 1


# ------------------------------------------------------------ verify-morita


VERIFY_MORITA_HEAD = """\
transferred-cocycle: PASS  phi^2(f) is a 2-cocycle on B
deformed-p-bimodule: PASS  hat P satisfies all bimodule conditions
deformed-q-bimodule: PASS  hat Q satisfies all bimodule conditions
"""

VERIFY_MORITA_SIDE = """\
{side}:tensor-dimension: PASS  dim {dim}, expected {dim}
{side}:central-t-action: PASS  left and right action of (0, 1) on the tensor
{side}:second-slot-collapse: PASS  (0, x) (x) (0, y) vanishes in the tensor
{side}:kernel-description: PASS  (x, 0) (x) (0, y) spans ker T: rank {half}, nullity {half}
{side}:complement-split: PASS  corrected generators complement the kernel
{side}:t-isomorphism: PASS  T maps the complement bijectively onto the kernel
{side}:summands-stable: PASS  both splitting summands are stable under the plain action
{side}:quotient-uple: PASS  carved uple conditions: all hold
{side}:pairing-morphism: PASS  w = (w0, w1, w2) is a morphism of uples
{side}:pairing-well-defined: PASS  w agrees with its defining formulas on all pure generators
{side}:pairing-invertible: PASS  w0 and w2 are invertible
{side}:inverse-morphism: PASS  the inverse triple composes to the identity both ways
{side}:concrete-isomorphism: PASS  glued w intertwines both deformed actions
"""


def verify_morita_golden(dim_a, dim_b):
    """The passing report for algebras A and B of these dimensions."""
    sides = [VERIFY_MORITA_SIDE.format(side=side, dim=2 * dim, half=dim)
             for side, dim in (("A-side", dim_a), ("B-side", dim_b))]
    return VERIFY_MORITA_HEAD + "".join(sides) + "overall: PASS\n"


def test_verify_morita_golden(capsys):
    # the full text of two passing certificates: M_2 of the dual numbers
    # (dimensions 2 and 8) and the two-cycle algebra against its corner at
    # the unit, which is the whole algebra (dimension 5 on both sides)
    assert run(["verify-morita", data_path("dual_numbers.alg"), "--matrix", "2"]) == 0
    assert capsys.readouterr().out == verify_morita_golden(2, 8)
    assert run(["verify-morita", data_path("two_cycle.alg"), "--idempotent", "1,2"]) == 0
    assert capsys.readouterr().out == verify_morita_golden(5, 5)


def test_verify_morita_matrix(capsys):
    assert run(["verify-morita", data_path("dual_numbers.alg"),
                "--matrix", "2", "--report", "json-lines"]) == 0
    _, lines = lines_of(capsys)
    assert len(lines) == 29
    assert all(json.loads(l)["ok"] is True for l in lines)


def test_verify_morita_checks_each_cocycle_once(capsys, monkeypatch):
    # d f = 0 is proved once on A and d g = 0 once on B, each by the engine
    # on generator rows, and no full differential is taken; the deformed
    # bimodules and A_f, B_g are built on those two proofs.  The engine's
    # other pass is d F = 0 on the Morita ring, of dimension 2 + 4 + 4 + 8
    from quivdeform import deform, hochschild
    seen, engine = [], []
    original, witness = hochschild.full_differential, morita.deformation_witness

    def counted(f, alg):
        seen.append(alg.dim)
        return original(f, alg)

    for module in (cli, deform, hochschild, morita):
        if hasattr(module, "full_differential"):
            monkeypatch.setattr(module, "full_differential", counted)
    monkeypatch.setattr(morita, "deformation_witness",
                        lambda alg, F=None: engine.append(alg.dim) or witness(alg, F))
    assert run(["verify-morita", data_path("dual_numbers.alg"), "--matrix", "2"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert seen == []
    assert engine == [2, 8, 18]


def test_verify_morita_skips_the_bimodule_checks_after_a_failed_transfer(capsys,
                                                                       monkeypatch):
    # with phi^2(f) bumped off the cocycles, B_g is not associative: the
    # hat checks FAIL as skipped, and neither A_f nor B_g is built, so no
    # generator check runs over them
    real = morita.transfer_phi
    bumps = []

    def broken(ctx, f):
        g = real(ctx, f)
        bumped = g + FullCochain(ctx.b.dim, 2, ctx.field, {(0, 0): {0: ctx.field.one}})
        assert deformation_witness(ctx.b, bumped.table) is not None
        bumps.append((ctx.b, bumped))
        return bumped

    built = []

    def deformed(alg, f):
        built.append(alg.dim)
        raise AssertionError("a deformed algebra was built")

    monkeypatch.setattr(morita, "transfer_phi", broken)
    monkeypatch.setattr(deform, "Deformation", deformed)
    assert run(["verify-morita", data_path("dual_numbers.alg"), "--matrix", "2"]) == 1
    out, _ = lines_of(capsys)
    # the FAIL line names the first tuple where the oracle's full bar
    # differential of the bumped g is nonzero
    [(alg_b, bumped)] = bumps
    first = min(brute_differential(alg_b.dim, alg_b.table, alg_b.field, bumped.table, 2))
    assert out == ("transferred-cocycle: FAIL  d^2 g != 0 on B at (%s)\n"
                   % ", ".join(alg_b.labels[i] for i in first) +
                   "deformed-p-bimodule: FAIL  skipped: phi^2(f) is not a cocycle\n"
                   "deformed-q-bimodule: FAIL  skipped: phi^2(f) is not a cocycle\n"
                   "overall: FAIL\n")
    assert built == []


def test_verify_morita_corner(capsys):
    assert run(["verify-morita", data_path("lambda_m2.alg"),
                "--idempotent", "1"]) == 0
    out, _ = lines_of(capsys)
    assert "overall: PASS" in out


def test_verify_morita_char_two(capsys):
    assert run(["verify-morita", data_path("dual_numbers.alg"),
                "--matrix", "1", "--field", "F2"]) == 1
    assert "CharTwoUnsupported" in capsys.readouterr().err


# --------------------------------------------------------- module-roundtrip


def write_regular_module(tmp_path, name="dual_numbers"):
    af, basis = load_basis(name + ".alg")
    deformed = DeformedAlgebra(basis, cochain_from_pairs(basis, af.cocycle_pairs))
    reg = regular_module(deformed)
    actions = {deformed.labels[i]: reg.actions[i] for i in range(deformed.dim)}
    path = tmp_path / (name + ".mod")
    path.write_text(emit_module_text(reg.dim, actions, basis.field))
    return path


def test_module_roundtrip_regular(tmp_path, capsys):
    mod = write_regular_module(tmp_path)
    assert run(["module-roundtrip", data_path("dual_numbers.alg"),
                str(mod)]) == 0
    out, _ = lines_of(capsys)
    assert "uple-carved: PASS  M0 dim 2, M1 dim 2" in out
    assert "functor-rebuild: PASS" in out
    assert "roundtrip-triple: PASS" in out


def test_module_roundtrip_checks_each_axiom_once(tmp_path, capsys, monkeypatch):
    # the module as it is read, the uple carved from it and the uple
    # carved from F(uple): one bimodule check each
    calls = []
    real = morita.Bimodule.violations

    def counted(self):
        calls.append(self.dim)
        return real(self)

    monkeypatch.setattr(morita.Bimodule, "violations", counted)
    for name in ("dual_numbers", "two_cycle"):
        mod = write_regular_module(tmp_path, name)
        calls.clear()
        assert run(["module-roundtrip", data_path(name + ".alg"), str(mod)]) == 0
        assert "overall: PASS" in lines_of(capsys)[0]
        dim = 2 * load_basis(name + ".alg")[1].dim
        assert calls == [dim, dim, dim], name


def test_module_roundtrip_inverts_the_basis_change_once(tmp_path, capsys, monkeypatch):
    # functor-rebuild reads the inverse basis change that reconstruct
    # computed, and the roundtrip-triple line reads the isomorphism check
    # of roundtrip_triple, so a run makes 4 inversions: one basis change
    # in each of the two reconstructions, and the blocks u0 and u2 of the
    # round-trip triple, once
    calls = []
    real = linalg.map_inverse

    def counted(amap, n, field):
        calls.append(n)
        return real(amap, n, field)

    for module in (cli, linalg, modcat, morita):
        if hasattr(module, "map_inverse"):
            monkeypatch.setattr(module, "map_inverse", counted)
    for name in ("dual_numbers", "two_cycle"):
        mod = write_regular_module(tmp_path, name)
        calls.clear()
        assert run(["module-roundtrip", data_path(name + ".alg"), str(mod)]) == 0
        assert "overall: PASS" in lines_of(capsys)[0]
        dim = 2 * load_basis(name + ".alg")[1].dim
        assert calls == [dim, dim] + [dim // 2] * 2, name


def test_module_roundtrip_refuses_a_non_cocycle(tmp_path, capsys, monkeypatch):
    mod = write_regular_module(tmp_path)
    bad = tmp_path / "broken.alg"
    bad.write_text(BROKEN_COCYCLE)
    checked = []
    real = hochschild.is_cocycle

    def counted(f, basis):
        checked.append(f)
        return real(f, basis)

    for module in (deform, hochschild):
        monkeypatch.setattr(module, "is_cocycle", counted)
    assert run(["module-roundtrip", str(bad), str(mod)]) == 2
    assert capsys.readouterr().err == ("error: not a 2-cocycle; the deformed product "
                                       "would not be associative\n")
    assert len(checked) == 1


def test_module_roundtrip_rejects_non_module(tmp_path, capsys):
    af, basis = load_basis("dual_numbers.alg")
    deformed = DeformedAlgebra(basis, cochain_from_pairs(basis, af.cocycle_pairs))
    eye = {i: {i: basis.field.one} for i in range(4)}
    actions = {"e(1)": eye, "a": eye, "t*e(1)": {}, "t*a": {}}
    path = tmp_path / "bad.mod"
    path.write_text(emit_module_text(4, actions, basis.field))
    assert run(["module-roundtrip", data_path("dual_numbers.alg"),
                str(path)]) == 2
    # a acts as the identity, so a.(a.e_0) = e_0 while (a*a).e_0 = 0: the
    # triple (a, a, e_0) of the module's ring [[A_f, M], [0, k]]
    assert capsys.readouterr().err == ("error: the bimodule ring is not associative "
                                       "at (a:a, a:a, p0)\n")


def test_module_roundtrip_fail_line_names_the_action(tmp_path, capsys, monkeypatch):
    mod = write_regular_module(tmp_path)
    real = modcat.functor_F

    def broken(uple):
        glued = real(uple)
        actions = list(glued.actions)
        actions[1] = {c: dict(col) for c, col in actions[1].items()}
        actions[1][0] = {**actions[1].get(0, {}), 3: glued.field.one}
        return LeftModule(glued.algebra, glued.dim, actions, check=False)

    monkeypatch.setattr(modcat, "functor_F", broken)
    assert run(["module-roundtrip", data_path("dual_numbers.alg"), str(mod)]) == 1
    out, _ = lines_of(capsys)
    assert ("functor-rebuild: FAIL  actions disagree after the basis change at a\n"
            in out)
    # the round trip starts from the same F(uple), so it fails at a too
    assert ("roundtrip-triple: FAIL  the triple does not intertwine the left action "
            "of a at 0\n" in out)


# ------------------------------------------------------------------- usage


def test_usage_errors(capsys):
    # each usage error exits 2 with a usage line and an error line on stderr
    for argv in ([], ["frobnicate"], ["transfer", data_path("two_cycle.alg")],
                 ["transfer", data_path("two_cycle.alg"), "--matrix", "1",
                  "--idempotent", "1"]):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage: quivdeform"), argv
        assert lines[1].startswith("quivdeform: error: "), argv


def test_help_lists_the_commands_and_their_options(capsys):
    for argv in (["-h"], ["--help"], ["--he"]):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: quivdeform")
        assert [name for name in cli.COMMANDS if "\n  %s " % name in out] == list(cli.COMMANDS)
    for command, (_, options, _, _) in cli.COMMANDS.items():
        for flag in ("-h", "--help"):
            assert run([command, flag]) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.startswith("usage: quivdeform %s " % command)
            assert all(name in out for name in options), command
    assert run(["deform", "x.alg", "--max-degree", "4", "-h"]) == 0
    assert "-o, --output OUT" in capsys.readouterr().out


# argv shapes of the benchmark's jobs (bench/gen.py), on the fixtures
ALG, OTHER = data_path("dual_numbers.alg"), data_path("two_cycle.alg")
BENCH_SHAPES = [[command, ALG] for command in ("hh", "check-cocycle", "verify-deform")] + [
    ["equiv", ALG, OTHER], ["hh", "--field", "F5", ALG],
    ["deform", "--interreduce", ALG],
    ["verify-deform", "--max-degree", "18", ALG],
    ["check-cocycle", "--max-degree", "26", ALG],
    ["deform", "--interreduce", "--max-degree", "14", ALG],
    ["module-roundtrip", "--max-degree", "18", ALG, "regular.mod"],
    ["equiv", "--max-degree", "14", ALG, OTHER],
    ["transfer", ALG, "--matrix", "3"], ["verify-morita", ALG, "--matrix", "2"],
    ["transfer", ALG, "--idempotent", "1"],
    ["verify-morita", ALG, "--idempotent", "1,2"],
]

# a value for every long option of some command; each is tried on every
# command, so that an option of another command is refused too
OPTION_VALUES = {"--field": "F5", "--max-degree": "7", "--report": "json-lines",
                 "--output": "o.txt", "--dot": "q.dot", "--interreduce": None,
                 "--matrix": "2", "--idempotent": "1,2"}


def spelling_grid():
    """argvs that spell each option of OPTION_VALUES, on each command, as
    --name value, --name=value and by two prefixes (which may be ambiguous),
    before, between and after the positionals, and -o as -o FILE, -oFILE
    and -o=FILE."""
    positionals = {command: ["A.alg"] for command in cli.COMMANDS}
    positionals.update({"equiv": ["A.alg", "B.alg"], "module-roundtrip": ["A.alg", "M.mod"]})
    out = []
    for command, args in positionals.items():
        for name, value in OPTION_VALUES.items():
            spellings = [[spell + ("" if value is None else "=" + value)]
                         for spell in (name, name[:5], name[:3])]
            if value is not None:
                spellings += [[name, value], [name[:5], value]]
            if name == "--output":
                spellings += [["-o", value], ["-o" + value], ["-o=" + value]]
            context = ([] if name in ("--matrix", "--idempotent")
                       or command not in ("transfer", "verify-morita") else ["--matrix", "2"])
            for spelled in spellings:
                for at in range(len(args) + 1):
                    out.append([command] + args[:at] + spelled + args[at:] + context)
    return out


# argvs whose reading turns on "--", repeats, "-", negative numbers and
# words with spaces
EDGE_CASES = [
    ["hh", "--", "-A.alg"], ["hh", "--field", "Q", "--", "--max-degree"],
    ["equiv", "A.alg", "--", "-B.alg"], ["equiv", "--", "A.alg", "B.alg"],
    ["hh", "--max-degree", "7", "A.alg", "--max-degree=9"],
    ["hh", "--report", "json-lines", "--report", "text", "A.alg"],
    ["deform", "A.alg", "-o", "x", "--output", "y", "--interreduce", "--interreduce"],
    ["deform", "A.alg", "-o", "-"], ["deform", "A.alg", "--dot="], ["hh", "--field=", "A.alg"],
    ["transfer", "A.alg", "--matrix", "2", "--matrix", "3"],
    ["transfer", "A.alg", "--matrix", "-1"], ["transfer", "A.alg", "--matrix=-1"],
    ["hh", "--max-degree", "-3", "A.alg"], ["hh", "--max-degree", " 3 ", "A.alg"],
    ["basis", "-"], ["basis", "-5"], ["basis", "a b.alg"], ["basis", "-a b"],
    ["basis", "--a b"], ["hh", "--field", "-a b", "A.alg"],
    ["transfer", "A.alg", "--idempotent", "-1"],
    ["basis", "-1.5"], ["basis", "-.5"], ["basis", "-1."], ["basis", "-٣"], ["basis", "-²"],
    ["basis", "--1"], ["transfer", "A.alg", "--matrix", "-.5"],
    ["hh", "--field", "-1.5", "A.alg"], ["hh", "--field", "-٣", "A.alg"],
    ["hh", "--field", "-²", "A.alg"],
]

# command lines that both parsers refuse
MALFORMED = [
    [], ["frobnicate", "A.alg"], ["--field", "Q", "basis", "A.alg"], ["--", "hh", "A.alg"],
    ["hh"], ["hh", "A.alg", "B.alg"], ["equiv", "A.alg"], ["module-roundtrip", "A.alg"],
    ["hh", "A.alg", "--bogus"], ["hh", "-x", "A.alg"], ["hh", "--matrix", "2", "A.alg"],
    ["hh", "A.alg", "-o", "x"], ["deform", "A.alg", "--idempotent", "1"],
    ["transfer", "A.alg", "--ma", "2"], ["transfer", "A.alg", "--m=2"],
    ["hh", "A.alg", "--max-degree"], ["deform", "A.alg", "-o"], ["deform", "A.alg", "--dot"],
    ["hh", "A.alg", "--field", "--report", "text"], ["deform", "A.alg", "--output", "--"],
    ["hh", "A.alg", "--max-degree", "x"], ["hh", "A.alg", "--max-degree", "2.5"],
    ["hh", "A.alg", "--max-degree="], ["transfer", "A.alg", "--matrix", "two"],
    ["hh", "A.alg", "--report", "yaml"], ["hh", "A.alg", "--report", "json"],
    ["transfer", "A.alg"], ["verify-morita", "A.alg", "--report", "text"],
    ["transfer", "A.alg", "--matrix", "2", "--idempotent", "1"],
    ["verify-morita", "--idempotent=1", "A.alg", "--mat", "1"],
    ["deform", "A.alg", "--interreduce=yes"], ["deform", "A.alg", "--interreduce="],
    ["hh", "A.alg", "--help=1"],
    ["hh", "A.alg", "--", "--max-degree", "3"], ["hh", "--", "A.alg", "B.alg"],
]


def parsed(parse, argv):
    """The attributes parse gives argv, or its exit code."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


def test_parser_reads_each_command_line_as_argparse_does(capsys):
    # the table-driven parser against the argparse parser it replaced,
    # which tests/oracles.py keeps as the reference
    oracle = build_parser()
    grid = spelling_grid()
    assert len(grid) > 500
    refused = 0
    for argv in BENCH_SHAPES + grid + EDGE_CASES:
        expected = parsed(oracle.parse_args, argv)
        assert parsed(cli.parse_args, argv) == expected, argv
        refused += expected == 2
    capsys.readouterr()
    # the grid holds options of other commands and ambiguous prefixes
    assert 0 < refused < len(grid)
    assert all(isinstance(parsed(cli.parse_args, argv), dict) for argv in BENCH_SHAPES)


def test_parser_refuses_what_argparse_refuses(capsys):
    oracle = build_parser()
    for argv in MALFORMED:
        assert parsed(oracle.parse_args, argv) == 2, argv
        capsys.readouterr()
        assert parsed(cli.parse_args, argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: quivdeform"), argv
        assert err.splitlines()[-1].startswith("quivdeform: error: "), argv


def in_fresh_process(code, *flags):
    """(exit code, stdout, stderr) of python running code with src/ on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


START_UP_IMPORTS = ("argparse", "gettext", "locale", "fractions", "decimal")


# k[x]/(x^3) with the cocycle of x^3 = t scaled by 2
TRUNC3_DOUBLED = """field Q
vertex 1
arrow x : 1 -> 1
relation x*x*x
cocycle f(x, x*x) = 2*e(1)
cocycle f(x*x, x) = 2*e(1)
cocycle f(x*x, x*x) = 2*x
"""


def test_integer_jobs_import_neither_argparse_nor_fractions(tmp_path):
    # a job whose scalars stay integers pays for no parser library and no
    # rational arithmetic; verify-morita halves its sums exactly, so an
    # even integer stays an int, and checks the deformed context without
    # a greedy span over its doubled ring, which would divide; hh ranks
    # its differentials by cross-multiplication, which divides nothing
    trunc3 = tmp_path / "trunc3.alg"
    trunc3.write_text(TRUNC3_DOUBLED, encoding="utf-8")
    trunc6 = tmp_path / "trunc6.alg"
    trunc6.write_text("field Q\nvertex 1\narrow x : 1 -> 1\nrelation %s\n"
                      % "*".join(["x"] * 6), encoding="utf-8")
    code = ("import sys\n"
            "from quivdeform import cli\n"
            "for command in ('basis', 'verify-deform'):\n"
            "    assert cli.run([command, %r]) == 0\n"
            "for path in (%r, %r):\n"
            "    assert cli.run(['verify-morita', path, '--matrix', '2']) == 0\n"
            "for path in (%r, %r, %r):\n"
            "    assert cli.run(['hh', path]) == 0\n"
            "print(sorted(set(%r) & set(sys.modules)))\n"
            % (data_path("two_cycle.alg"), data_path("dual_numbers.alg"), str(trunc3),
               data_path("dual_numbers.alg"), data_path("quantum_plane.alg"), str(trunc6),
               START_UP_IMPORTS))
    code_, out, err = in_fresh_process(code)
    assert (code_, err) == (0, "")
    assert out.splitlines()[0] == "dim A = 5"
    hh = "".join("dim Z^2 = %d\ndim B^2 = %d\ndim HH^2 = %d\n" % triple
                 for triple in ((2, 1, 1), (12, 6, 6), (30, 25, 5)))
    assert out.endswith(verify_morita_golden(2, 8) + verify_morita_golden(3, 12) + hh
                        + "[]\n")


def test_job_with_a_fraction_loads_fractions_and_prints_the_same(tmp_path):
    # the dual numbers with their cocycle halved: the file's 1/2 is a
    # scalar that is not an integer, and hh prints what it prints on the
    # dual numbers
    half = tmp_path / "half.alg"
    half.write_text("field Q\nvertex 1\narrow a : 1 -> 1\nrelation a*a\n"
                    "cocycle f(a, a) = 1/2*e(1)\n", encoding="utf-8")
    code = ("import sys\n"
            "from quivdeform import cli\n"
            "assert cli.run(['hh', %r]) == 0\n"
            "print(sorted(set(%r) & set(sys.modules)))\n"
            % (str(half), START_UP_IMPORTS))
    code_, out, err = in_fresh_process(code)
    assert (code_, err) == (0, "")
    assert out == "dim Z^2 = 2\ndim B^2 = 1\ndim HH^2 = 1\n['decimal', 'fractions']\n"


def test_each_command_loads_only_the_layers_it_runs():
    # importing the package loads no layer; cli loads errors, fields,
    # fileio and quiver, which builds on linalg, and each handler imports
    # the further layers it computes with when it runs
    two = data_path("two_cycle.alg")
    groups = [[["basis", two]], [["hh", two], ["check-cocycle", two]],
              [["verify-deform", two], ["deform", two], ["equiv", two, two]]]
    code = ("import contextlib, io, sys\n"
            "def layers():\n"
            "    print(sorted(m[11:] for m in sys.modules if m.startswith('quivdeform.')))\n"
            "import quivdeform\n"
            "layers()\n"
            "from quivdeform import cli\n"
            "layers()\n"
            "for group in %r:\n"
            "    for argv in group:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert cli.run(argv) == 0, argv\n"
            "    layers()\n" % groups)
    code_, out, err = in_fresh_process(code)
    assert (code_, err) == (0, "")
    base = ["cli", "errors", "fields", "fileio", "linalg", "quiver"]
    assert out.splitlines() == [str(layers) for layers in (
        [], base, base, sorted(base + ["hochschild"]),
        sorted(base + ["deform", "hochschild"]))]


def test_passing_morita_commands_load_neither_deform_nor_heapq():
    # a passing transfer or verify-morita proves every identity on
    # generator rows: it builds no A_f or B_g, so the deform layer is not
    # imported, and no elimination of the package needs heapq
    two = data_path("two_cycle.alg")
    jobs = [[command, two] + flag for command in ("transfer", "verify-morita")
            for flag in (["--matrix", "2"], ["--idempotent", "1,2"])]
    code = ("import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from quivdeform import cli\n"
            "for argv in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0, argv\n"
            "print(sorted(m[11:] for m in sys.modules if m.startswith('quivdeform.')))\n"
            "print(sorted({'heapq', 'quivdeform.deform'} & (set(sys.modules) - before)))\n"
            % jobs)
    code_, out, err = in_fresh_process(code)
    assert (code_, err) == (0, "")
    assert out.splitlines() == [str(["cli", "errors", "fields", "fileio", "hochschild",
                                     "linalg", "morita", "quiver"]), "[]"]


@pytest.mark.parametrize("name", ["dual_numbers", "triangle", "quantum_plane"])
def test_presentation_refuses_relations_that_kill_a_vertex(name, tmp_path, capsys):
    # the cocycle line replaced by relation e(1)*e(1), which kills the
    # vertex idempotent e(1): verify-deform and deform end with a typed
    # InputError and exit code 2, not a traceback
    with open(data_path(name + ".alg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines(True)
    killed = tmp_path / (name + ".alg")
    killed.write_text("".join("relation e(1)*e(1)\n" if line.startswith("cocycle") else line
                              for line in lines), encoding="utf-8")
    for command in ("verify-deform", "deform"):
        assert run([command, str(killed)]) == 2
        assert capsys.readouterr() == (
            "", "error: the relations kill the vertex idempotent e(1); the presentation "
                "needs admissible relations\n")


@pytest.mark.parametrize("name, vertices", [("two_cycle", "1"), ("two_cycle", "1,2"),
                                            ("dual_numbers", "1")])
def test_corner_refuses_relations_that_kill_a_vertex(name, vertices, tmp_path, capsys):
    # the cocycle lines dropped and relation e(1)*e(1) added, which kills
    # the vertex idempotent e(1): --idempotent at e(1) ends with a typed
    # InputError and exit code 2, not a traceback
    with open(data_path(name + ".alg"), encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("cocycle")]
    killed = tmp_path / (name + ".alg")
    killed.write_text("".join(lines) + "relation e(1)*e(1)\n", encoding="utf-8")
    for command in ("transfer", "verify-morita"):
        assert run([command, str(killed), "--idempotent", vertices]) == 2
        assert capsys.readouterr() == (
            "", "error: the relations kill the vertex idempotent e(1); --idempotent "
                "needs admissible relations\n")


def test_package_exports_resolve_on_first_use():
    # each name of __all__ is imported from its layer when it is first
    # read, by attribute or by a star import, and is the layer's object
    code = ("import sys\n"
            "import quivdeform\n"
            "assert not hasattr(quivdeform, 'no_such_name')\n"
            "from quivdeform import *\n"
            "layers = [m for n, m in sys.modules.items() if n.startswith('quivdeform.')]\n"
            "print([n for n in quivdeform.__all__ if not any(\n"
            "    vars(m).get(n) is globals()[n] is getattr(quivdeform, n) for m in layers)])\n")
    assert in_fresh_process(code) == (0, "[]\n", "")


def cli_process(argv, stdout=subprocess.PIPE, unbuffered=False):
    """(exit code, stdout bytes, stderr text) of argv run as its own
    python -m quivdeform.cli process, with src/ on the path and
    PYTHONUNBUFFERED set or unset; stdout is None when it is not a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "quivdeform.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8")


def test_process_prints_what_run_prints_above_64_kib(tmp_path, capsys):
    # main flushes stdout and ends the process without interpreter
    # teardown; what the process writes to a file or a pipe, with stdout
    # buffered or not, is byte for byte what run prints
    arrow = "x" * 40
    alg = tmp_path / "power.alg"
    alg.write_text("field Q\nvertex 1\narrow %s : 1 -> 1\nrelation %s\n"
                   % (arrow, "*".join([arrow] * 60)))
    argv = ["basis", str(alg), "--max-degree", "60"]
    assert run(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    assert len(want) > 64 * 1024
    out = tmp_path / "out.txt"
    for unbuffered in (False, True):
        assert cli_process(argv, unbuffered=unbuffered) == (0, want, "")
        with open(out, "wb") as fh:
            assert cli_process(argv, fh, unbuffered) == (0, None, "")
        assert out.read_bytes() == want


def test_process_exit_codes_are_those_of_run(tmp_path, capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text(BROKEN_COCYCLE)
    for argv, code in ((["check-cocycle", data_path("two_cycle.alg")], 0),
                       (["check-cocycle", str(bad)], 1),
                       (["hh", str(tmp_path / "missing.alg")], 2),
                       (["hh"], 2), (["-h"], 0)):
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert cli_process(argv) == (code, out.encode("utf-8"), err), argv


def test_process_deform_files_are_complete_when_it_ends(tmp_path):
    alg, dot = tmp_path / "qf.alg", tmp_path / "qf.dot"
    argv = ["deform", data_path("two_cycle.alg"), "-o", str(alg), "--dot", str(dot)]
    assert cli_process(argv) == (0, b"", "")
    assert alg.read_text(encoding="utf-8") == DEFORM_GOLDEN["two_cycle"]
    assert dot.read_text(encoding="utf-8") == TWO_CYCLE_DOT


def assert_failed_writes_reported(argv):
    """argv, run as a process with stdout on a closed pipe and on a full
    disk, buffered and not: buffered, the output fails at main's flush,
    and the interpreter's own exit reports it ("Exception ignored", exit
    120); unbuffered, print fails inside run, which reports the OSError
    with exit 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        broken = [cli_process(argv, write_end, unbuffered) for unbuffered in (False, True)]
    finally:
        os.close(write_end)
    with open("/dev/full", "wb") as full:
        filled = [cli_process(argv, full, unbuffered) for unbuffered in (False, True)]
    for (buffered, unbuffered), (name, number) in ((broken, ("BrokenPipeError", errno.EPIPE)),
                                                   (filled, ("OSError", errno.ENOSPC))):
        error = "[Errno %d] %s" % (number, os.strerror(number))
        code, out, err = buffered
        head, *rest = err.splitlines()
        assert (code, out, rest) == (120, None, ["%s: %s" % (name, error)])
        assert head.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert unbuffered == (2, None, "error: %s\n" % error)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_reports_a_failed_write_as_the_interpreter_does():
    assert_failed_writes_reported(["basis", data_path("two_cycle.alg")])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_reports_a_failed_write_of_the_help_as_any_other():
    # the help is printed inside run too, that of the command line and
    # that of a command
    for argv in (["-h"], ["verify-morita", "--help"]):
        assert_failed_writes_reported(argv)


def test_deform_writes_its_files_as_utf8(tmp_path):
    # fileio reads utf-8, so -o and --dot write it whatever the locale;
    # under these flags an open() without an encoding raises
    alg, dot = tmp_path / "qf.alg", tmp_path / "qf.dot"
    code = ("from quivdeform import cli\n"
            "raise SystemExit(cli.run(['deform', %r, '-o', %r, '--dot', %r]))\n"
            % (data_path("two_cycle.alg"), str(alg), str(dot)))
    assert in_fresh_process(code, "-X", "warn_default_encoding",
                            "-W", "error::EncodingWarning") == (0, "", "")
    assert dot.read_text(encoding="utf-8") == TWO_CYCLE_DOT
    assert alg.read_text(encoding="utf-8") == DEFORM_GOLDEN["two_cycle"]


FIXTURES = ("dual_numbers", "two_cycle", "triangle", "quantum_plane", "lambda_m2",
            "cube_multiples")


def test_no_command_compiles_a_regular_expression(tmp_path, monkeypatch, capsys):
    # the package reads its files and its command line with str methods:
    # no call of re._compile comes from a frame of the package, on any
    # command and fixture.  fractions is imported first, since its import,
    # which fields makes at the first non-integer scalar, compiles
    # patterns of its own
    import fractions  # noqa: F401
    package = os.path.dirname(cli.__file__) + os.sep
    compiled, real = [], re._compile

    def spy(pattern, flags):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_code.co_filename.startswith(package):
            frame = frame.f_back
        if frame is not None:
            compiled.append(pattern)
        return real(pattern, flags)

    module = write_regular_module(tmp_path)
    monkeypatch.setattr(re, "_compile", spy)
    runs = 0
    for name in FIXTURES:
        alg = data_path(name + ".alg")
        for argv in (["basis", alg], ["hh", alg], ["check-cocycle", alg],
                     ["verify-deform", alg, "--report", "json-lines"],
                     ["deform", alg, "--interreduce", "-o", str(tmp_path / "out.alg"),
                      "--dot", str(tmp_path / "out.dot")],
                     ["equiv", alg, alg], ["transfer", alg, "--matrix", "2"],
                     ["verify-morita", alg, "--idempotent", "1"],
                     ["basis", "--field=F7", "--max-degree", "-1.5", alg]):
            run(argv)
            runs += 1
    run(["module-roundtrip", data_path("dual_numbers.alg"), str(module)])
    capsys.readouterr()
    assert runs == 54 and compiled == []


def test_standard_cocycle_values_are_not_rewritten(monkeypatch):
    # a value whose paths are all basis paths is its own normal form, so
    # cochain_from_pairs rewrites nothing; a value with a path outside the
    # basis is still rewritten
    from quivdeform.quiver import RewriteSystem
    calls = []
    reduce = RewriteSystem.reduce
    monkeypatch.setattr(RewriteSystem, "reduce",
                        lambda self, x: calls.append(x) or reduce(self, x))
    for name in ("dual_numbers", "two_cycle", "triangle", "quantum_plane", "cube_multiples"):
        af, basis = load_basis(name + ".alg")
        calls.clear()
        f = cochain_from_pairs(basis, af.cocycle_pairs)
        assert calls == [] and f.table, name
    af = parse_algebra_text("field Q\nvertex 1\narrow a : 1 -> 1\nrelation a*a*a\n"
                            "cocycle f(a, a) = a*a*a + 2*a*a\n")
    basis = compute_basis(af.quiver, af.relations, af.field)
    calls.clear()
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    assert len(calls) == 1 and f.table == {(1, 1): {2: 2}}
