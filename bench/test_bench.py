"""Tests of the benchmark's own checker.

    python3 -m pytest bench/test_bench.py

They show that the checks reject deliberately wrong outputs, and that
the checker's own algebra agrees with closed forms.  A few take real
output from the command line and alter it.
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import algebra as A  # noqa: E402
import check as C  # noqa: E402
import gen  # noqa: E402

Q = A.Field(0)


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "quivdeform.cli"] + list(argv),
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout


def fixture_path(name):
    return os.path.join(ROOT, "tests", "data", name + ".alg")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_truncated_polynomial_hh2_closed_form(n, p):
    want = n if p and n % p == 0 else n - 1
    assert A.hh2(A.truncated_polynomial(A.Field(p), n))[2] == want


def test_exterior_and_cyclic_dimensions():
    assert A.exterior_algebra(Q, ["x1", "x2", "x3"]).dim == 8
    assert A.cyclic_quiver(Q, 3, 6).dim == 18


def test_family_cocycles_are_cocycles_and_not_coboundaries():
    for name, alg, f, _ in gen.families(Q):
        assert not A.differential(alg, f, 2), name
        assert not A.is_coboundary(alg, f), name
    ext = A.exterior_algebra(Q, ["x1", "x2"])
    assert not A.differential(ext, A.clifford_cocycle(ext), 2)


def test_shift_is_cohomologous_and_perturbation_is_not_a_cocycle():
    import random
    alg = A.truncated_polynomial(Q, 5)
    rng = random.Random(0)
    shift = gen.random_coboundary(alg, rng)
    assert shift and A.is_coboundary(alg, shift)
    bump = gen.perturbation(alg, rng)
    assert A.differential(alg, bump, 2)


def test_hh_off_by_one_is_rejected():
    check = C.hh(30, 25, 5)
    assert check(0, "dim Z^2 = 30\ndim B^2 = 25\ndim HH^2 = 5\n") is None
    assert check(0, "dim Z^2 = 30\ndim B^2 = 25\ndim HH^2 = 6\n") is not None
    assert check(0, "dim Z^2 = 31\ndim B^2 = 25\ndim HH^2 = 5\n") is not None


def test_fixture_hh_matches_the_program():
    _, alg, _ = gen.fixture_algebra(ROOT, "two_cycle")
    rc, out = cli("hh", fixture_path("two_cycle"))
    assert C.hh(*A.hh2(alg))(rc, out) is None
    z2, b2, h = A.hh2(alg)
    assert C.hh(z2, b2, h + 1)(rc, out) is not None


def test_report_with_one_fail_line_is_rejected():
    rc, out = cli("verify-deform", fixture_path("dual_numbers"))
    check = C.verify_deform(4)
    assert check(rc, out) is None
    broken = out.replace("independence: PASS", "independence: FAIL", 1)
    assert broken != out
    assert check(rc, broken) is not None
    assert C.verify_deform(6)(rc, out) is not None


def test_accepted_non_cocycle_is_rejected():
    passing = "cocycle: PASS  28 table entries, d^2 f = 0\noverall: PASS\n"
    failing = "cocycle: FAIL  28 table entries, d^2 f != 0\noverall: FAIL\n"
    check = C.report(False, "cocycle")
    assert check(1, failing) is None
    assert check(0, passing) is not None
    assert check(1, passing) is not None


def test_cohomologous_scaled_cocycle_is_rejected():
    out = ("same-algebra: PASS  x\ncocycle-1: PASS  x\ncocycle-2: PASS  x\n"
           "cohomologous: PASS  x\nmultiplicative: PASS  x\noverall: PASS\n")
    assert C.report(False, "cohomologous")(0, out) is not None


def test_transferred_g_altered_in_one_entry_is_rejected():
    _, alg, f = gen.fixture_algebra(ROOT, "dual_numbers")
    rc, out = cli("transfer", fixture_path("dual_numbers"), "--matrix", "2")
    check = C.transfer_matrix(alg, f, 2)
    assert check(rc, out) is None
    lines = out.splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("g("))
    altered = list(lines)
    altered[first] += " + E22*a"
    assert check(rc, "\n".join(altered) + "\n") is not None
    del lines[first]
    assert check(rc, "\n".join(lines) + "\n") is not None


def transfer_text(labels, g):
    """A transfer report in the program's format, for a given g."""
    lines = []
    for (i, j) in sorted(g):
        terms = ["%s*%s" % (c, labels[k]) for k, c in sorted(g[(i, j)].items())]
        lines.append("g(%s, %s) = %s" % (labels[i], labels[j],
                                         " + ".join(terms).replace("+ -", "- ")))
    return "\n".join(lines + ["cocycle: PASS  d^2 g = 0 on B", "overall: PASS"]) + "\n"


def test_transfer_up_to_coboundary_is_accepted():
    """g may differ from the lift of f by a coboundary on B, and no more."""
    _, alg, f = gen.fixture_algebra(ROOT, "dual_numbers")
    dim, table, labels = A.matrix_algebra(alg, 2)
    lift = A.matrix_lift(alg, f, 2)
    check = C.transfer_matrix(alg, f, 2)
    assert check(0, transfer_text(labels, lift)) is None
    # d u for the 1-cochain u sending E11*a to E12*a and every other basis
    # element to 0: (d u)(x, y) = x u(y) - u(xy) + u(x) y
    x, y = labels.index("E11*a"), labels.index("E12*a")
    du = {}
    for i in range(dim):
        for j in range(dim):
            val = {}
            if j == x:
                A.add_into(Q, val, table.get((i, y), {}))
            if table.get((i, j), {}).get(x):
                A.add_into(Q, val, {y: table[(i, j)][x]}, -1)
            if i == x:
                A.add_into(Q, val, table.get((y, j), {}))
            if val:
                du[(i, j)] = val
    assert du
    shifted = A.combine(Q, (1, lift), (1, du))
    assert check(0, transfer_text(labels, shifted)) is None
    doubled = A.combine(Q, (2, lift))
    assert check(0, transfer_text(labels, doubled)) is not None


def test_speed_scale_uses_the_samples_near_the_job():
    import run
    sampler = run.SpeedSampler()
    ref = run.SAMPLE_REF_S
    # slow before the job, twice the reference speed during it, slow after
    sampler.samples = [(0.0, 4 * ref), (10.0, ref / 2), (10.5, ref / 2), (20.0, 4 * ref)]
    assert sampler.scale(10.0, 10.5) == pytest.approx(2.0)
    assert sampler.scale(9.9, 9.95) == pytest.approx(2.0)  # only samples within the pad
    assert run.speed_sample() > 0
