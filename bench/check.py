"""Checks of what one CLI job printed.

Each factory returns a function of (exit code, standard output) that
returns None when the output is right and a one-line reason otherwise.
Expected values come from closed forms or from algebra.py.
"""

import re
from fractions import Fraction

import algebra as A

_SCALAR = re.compile(r"^\d+(/\d+)?$")


def report_lines(out):
    """{check name: passed} of a text report, plus the overall verdict."""
    checks, overall = {}, None
    for line in out.splitlines():
        m = re.match(r"^(\S+): (PASS|FAIL)(\s|$)", line)
        if not m:
            continue
        if m.group(1) == "overall":
            overall = m.group(2) == "PASS"
        else:
            checks[m.group(1)] = m.group(2) == "PASS"
    return checks, overall


def report(expect_pass, name=None):
    """expect_pass: exit 0 and every line PASS.  Otherwise: exit 1, an
    overall FAIL, and the check called `name` FAIL."""
    def run(rc, out):
        checks, overall = report_lines(out)
        if not checks or overall is None:
            return "no report in the output"
        if expect_pass:
            failed = [k for k, ok in checks.items() if not ok]
            if rc != 0 or failed or not overall:
                return "expected all PASS, got exit %d, FAIL on %s" % (rc, failed)
        elif rc != 1 or overall or checks.get(name) is not False:
            return "expected %s: FAIL and exit 1, got exit %d, %s" % (name, rc, checks)
        return None
    return run


def hh(z2, b2, hh2):
    want = "dim Z^2 = %d\ndim B^2 = %d\ndim HH^2 = %d" % (z2, b2, hh2)

    def run(rc, out):
        if rc != 0 or out.strip() != want:
            return "expected %r, got exit %d and %r" % (want, rc, out.strip())
        return None
    return run


def verify_deform(dim_f):
    base = report(True)

    def run(rc, out):
        bad = base(rc, out)
        if bad:
            return bad
        dims = re.findall(r"dim kQ_f/I_f = (\d+)", out)
        triples = re.findall(r"all (\d+)\^3 basis triples", out)
        if dims != [str(dim_f)] or triples != [str(dim_f)]:
            return "expected dimension %d, got %s and %s" % (dim_f, dims, triples)
        return None
    return run


def presentation(dim_f):
    def run(rc, out):
        lines = out.splitlines()
        head = "# presentation of the deformed algebra (dim %d)" % dim_f
        if rc != 0 or not lines or lines[0] != head:
            return "expected header %r, got exit %d" % (head, rc)
        if not any(l.startswith("field ") for l in lines) or \
                not any(l.startswith("relation ") for l in lines):
            return "presentation lacks a field or relation line"
        return None
    return run


def parse_vector(text, index):
    """A printed signed sum of [scalar*]label terms as {index: Fraction}."""
    toks = text.split()
    if toks[0].startswith("-") and toks[0] != "-":
        toks = ["-", toks[0][1:]] + toks[1:]
    else:
        toks = ["+"] + toks
    vec = {}
    for sign, term in zip(toks[::2], toks[1::2]):
        head, _, rest = term.partition("*")
        c, label = (Fraction(head), rest) if _SCALAR.match(head) else (Fraction(1), term)
        vec[index[label]] = vec.get(index[label], 0) + (c if sign == "+" else -c)
    return {k: v for k, v in vec.items() if v}


def parse_transfer(out, labels):
    """The table of g printed by `transfer`, keyed by basis indices."""
    index = {s: i for i, s in enumerate(labels)}
    g = {}
    for line in out.splitlines():
        m = re.match(r"^g\((\S+), (\S+)\) = (.*)$", line)
        if m:
            g[(index[m.group(1)], index[m.group(2)])] = parse_vector(m.group(3), index)
    return g


def _transfer(dim, table, labels, expected):
    """transfer must print all-PASS identities and a g that is a 2-cocycle
    on B and equals `expected` up to a coboundary."""
    base = report(True)
    fld = A.Field(0)

    def run(rc, out):
        bad = base(rc, out)
        if bad:
            return bad
        try:
            g = parse_transfer(out, labels)
        except (KeyError, ValueError, IndexError) as exc:
            return "unreadable g table: %r" % (exc,)
        if not g:
            return "transfer printed no g entries"
        triple = A.full_cocycle_witness(fld, dim, table, g)
        if triple is not None:
            return "g is not a 2-cocycle on B: d g is nonzero at %s" % (triple,)
        if g != expected:
            diff = A.combine(fld, (1, g), (-1, expected))
            if not A.full_is_coboundary(fld, dim, table, diff):
                return "g - expected is not a coboundary on B"
        return None
    return run


def transfer_matrix(alg, f, n):
    dim, table, labels = A.matrix_algebra(alg, n)
    return _transfer(dim, table, labels, A.matrix_lift(alg, f, n))


def transfer_full_corner(alg, f):
    """Corner at the sum of all vertex idempotents: B is A itself, on the
    program's unlabelled basis x0, x1, ... in the order of A's basis."""
    return _transfer(alg.dim, alg.table, ["x%d" % i for i in range(alg.dim)], f)


def transfer_zero():
    base = report(True)

    def run(rc, out):
        bad = base(rc, out)
        if bad:
            return bad
        if "g = 0" not in out.splitlines() or "g(" in out:
            return "expected g = 0 for the zero cocycle"
        return None
    return run
