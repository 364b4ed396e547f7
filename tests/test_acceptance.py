"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
pass; a failing criterion fails its test.
"""

import random
import time

from quivdeform.cli import run
from quivdeform.deform import (DeformedAlgebra, build_presentation,
                               deformation_equivalence, deformed_multiply,
                               hat_f, normalize_cocycle, verify_presentation)
from quivdeform.fields import Field
from quivdeform.fileio import (emit_algebra_text, parse_algebra_file,
                               parse_algebra_text, parse_expression)
from quivdeform.hochschild import (FullCochain, cochain_from_pairs,
                                   cochain_from_paths, differential,
                                   full_differential, hh_dimension, is_cocycle,
                                   is_full_cocycle)
from quivdeform.modcat import (LeftModule, functor_F, reconstruct,
                               regular_module, regular_uple, roundtrip_triple)
from quivdeform.morita import (FinDimAlgebra, homotopy_h, matrix_context,
                               transfer_phi, transfer_psi, verify_morita_deformed)
from quivdeform.quiver import (AlgebraElement, FreeElement, Quiver,
                               compute_basis)

from conftest import data_path, identity_context, load_basis
from oracles import dense_inverse, dense_matmul, sparse_of

Q = Field.rationals()
F7 = Field.prime(7)

EXAMPLES = ("dual_numbers", "two_cycle", "triangle", "quantum_plane")


def report(n, label, failures, detail=""):
    ok = not failures
    tail = "  " + detail if detail else ""
    print("criterion %d (%s): %s%s" % (n, label, "PASS" if ok else "FAIL", tail))
    assert ok, "criterion %d: %s" % (n, failures)


def example_cochain(name, field=None):
    if field is None:
        af, basis = load_basis(name + ".alg")
    else:
        af = parse_algebra_file(data_path(name + ".alg"), field)
        basis = compute_basis(af.quiver, af.relations, af.field, 30)
    return af, basis, cochain_from_pairs(basis, af.cocycle_pairs)


def path_product(basis, deformed, p):
    """(alpha_1, 0) ... (alpha_s, 0) along the path p."""
    q = basis.quiver
    cur = (basis.element_from_path((p[0],)), basis.zero())
    for a in p[1:]:
        arrow = (basis.element_from_path((q.arrows[a][1], a)), basis.zero())
        cur = deformed_multiply(cur, arrow, deformed)
    return cur


# 1. golden presentations -------------------------------------------------

GOLDEN_PRESENTATIONS = {
    "dual_numbers": {
        "vertices": ["1"],
        "arrows": [("a^", "1", "1")],
        "ideal": ["a^*a^*a^*a^"],
        "dim": 4,
    },
    "two_cycle": {
        "vertices": ["1", "2"],
        "arrows": [("a1^", "1", "2"), ("a2^", "2", "1"), ("e^2", "2", "2")],
        "ideal": ["a1^*a2^*a1^*a2^", "e^2*e^2",
                  "a1^*a2^*a1^ - a1^*e^2", "a2^*a1^*a2^ - e^2*a2^"],
        "dim": 10,
    },
    "triangle": {
        "vertices": ["1", "2", "3"],
        "arrows": [("a1^", "1", "2"), ("a2^", "2", "3"), ("a3^", "1", "3"),
                   ("e^1", "1", "1"), ("e^2", "2", "2"), ("e^3", "3", "3")],
        "ideal": ["e^1*e^1", "e^2*e^2", "e^3*e^3",
                  "e^1*a1^ - a1^*e^2", "e^2*a2^ - a2^*e^3",
                  "e^1*a3^ - a3^*e^3", "a1^*a2^ - a3^*e^3"],
        "dim": 12,
    },
    "quantum_plane": {
        "vertices": ["1"],
        "arrows": [("a^", "1", "1"), ("b^", "1", "1"), ("e^1", "1", "1")],
        "ideal": ["e^1*e^1", "a^*a^", "b^*b^",
                  "e^1*a^ - a^*e^1", "e^1*b^ - b^*e^1",
                  "a^*b^ + b^*a^ - b^*a^*e^1"],
        "dim": 8,
    },
}


def test_criterion_1_example_presentations(tmp_path):
    failures = []
    start = time.monotonic()
    for name, exp in GOLDEN_PRESENTATIONS.items():
        out = tmp_path / (name + ".alg")
        if run(["deform", data_path(name + ".alg"), "-o", str(out)]) != 0:
            failures.append(name + ": deform exit code")
            continue
        back = parse_algebra_text(out.read_text())
        if back.quiver != Quiver(exp["vertices"], exp["arrows"]):
            failures.append(name + ": quiver differs")
            continue
        want = [parse_expression(t, back.quiver, back.field, {})
                for t in exp["ideal"]]
        mine = compute_basis(back.quiver, back.relations, back.field, 30)
        them = compute_basis(back.quiver, want, back.field, 30)
        if not (mine.dim == them.dim == exp["dim"]):
            failures.append("%s: dims %d/%d, expected %d"
                            % (name, mine.dim, them.dim, exp["dim"]))
        if any(not them.normal_form(r).is_zero() for r in back.relations):
            failures.append(name + ": emitted ideal escapes the golden one")
        if any(not mine.normal_form(r).is_zero() for r in want):
            failures.append(name + ": golden ideal escapes the emitted one")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append("runtime %.1fs" % elapsed)
    report(1, "golden example presentations", failures, "%.1fs (< 5s)" % elapsed)


# 2. HH^2 dimensions ------------------------------------------------------


def test_criterion_2_hh2_dimensions():
    failures = []
    for name in ("two_cycle", "triangle"):
        af, basis = load_basis(name + ".alg")
        d = hh_dimension(basis)
        if d != 1:
            failures.append("%s: dim HH^2 = %d" % (name, d))
    report(2, "HH^2 dimensions", failures)


# 3. associativity <=> cocycle --------------------------------------------


def deformed_table(alg, F):
    """A_f structure constants, without the cocycle gate."""
    n = alg.dim
    table = {}
    for i in range(n):
        for j in range(n):
            prod = alg.multiply_basis(i, j)
            entry = dict(prod)
            for k, c in F.value((i, j)).items():
                entry[n + k] = c
            if entry:
                table[(i, j)] = entry
            if prod:
                shifted = {n + k: c for k, c in prod.items()}
                table[(i, n + j)] = shifted
                table[(n + i, j)] = dict(shifted)
    return table


def associativity_defect(alg):
    fld = alg.field
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.multiply_basis(i, j)
            for k in range(alg.dim):
                if alg.mul(ij, {k: fld.one}) \
                        != alg.mul({i: fld.one}, alg.multiply_basis(j, k)):
                    return (i, j, k)
    return None


def test_criterion_3_associativity_iff_cocycle():
    failures = []
    for name in EXAMPLES:
        af, basis, f = example_cochain(name)
        fld = basis.field
        if not DeformedAlgebra(basis, f).associativity_holds():
            failures.append(name + ": deformed product not associative")
        # reduced side: bumping a stored value by any basis vector of its
        # corner must respect the equivalence in both directions
        for key in sorted(f.table):
            src = basis.path_source_of_index(key[0])
            tgt = basis.path_target_of_index(key[1])
            for i in range(basis.dim):
                if (basis.path_source_of_index(i) != src
                        or basis.path_target_of_index(i) != tgt):
                    continue
                bumped = f + FullCochain(basis.dim, 2, fld, {key: {i: fld.one}})
                holds = DeformedAlgebra(basis, bumped).associativity_holds()
                if holds != is_cocycle(bumped, basis):
                    failures.append(name + ": associativity and cocycle split")
        # table side: the example table must be defect free, and a unit bump
        # that spoils the cocycle identity must show an associativity defect
        good = FinDimAlgebra(fld, 2 * basis.dim, deformed_table(basis, f),
                             dict(basis.unit), check=False)
        if associativity_defect(good) is not None:
            failures.append(name + ": cocycle table has an associativity defect")
        broke = False
        for i in range(basis.dim):
            for j in range(basis.dim):
                for k in range(basis.dim):
                    bumped = f + FullCochain(
                        basis.dim, 2, fld, {(i, j): {k: fld.one}})
                    if is_full_cocycle(bumped, basis):
                        continue
                    bad = FinDimAlgebra(fld, 2 * basis.dim,
                                        deformed_table(basis, bumped),
                                        dict(basis.unit), check=False)
                    if associativity_defect(bad) is None:
                        failures.append(name + ": broken cocycle, no defect")
                    broke = True
                    break
                if broke:
                    break
            if broke:
                break
        if not broke:
            failures.append(name + ": no unit bump breaks the cocycle identity")
    report(3, "associativity iff cocycle, with detected break", failures)


# 4. products of lifted arrows ----------------------------------------------


def test_criterion_4_image_lemma():
    failures = []
    for name in EXAMPLES:
        af, basis, f = example_cochain(name)
        deformed = DeformedAlgebra(basis, f)
        for p in basis.paths:
            cur = path_product(basis, deformed, p)
            w = FreeElement.from_path(basis.quiver, basis.field, p)
            if cur[0] != basis.normal_form(w) or cur[1] != hat_f(w, basis, f):
                failures.append("%s: path %s" % (name, basis.quiver.path_str(p)))
    report(4, "arrow products track (w, f^(w)) on all basis paths", failures)


# 5. presentation checks ----------------------------------------------------


def test_criterion_5_presentation_checks():
    failures = []
    for name in EXAMPLES:
        af, basis, f = example_cochain(name)
        for tag, coc in (("f", normalize_cocycle(basis, f)),
                         ("0", cochain_from_paths(basis, 2, {}))):
            pres, _ = build_presentation(basis, coc)
            for check, ok, detail in verify_presentation(DeformedAlgebra(basis, coc), pres, 30):
                if not ok:
                    failures.append("%s[%s]: %s (%s)" % (name, tag, check, detail))
    report(5, "presentation checks on examples and on f = 0", failures)


# 6. transfer correctness --------------------------------------------------


def random_full_cochain(rng, field, dim, degree, terms=6):
    table = {}
    for _ in range(terms):
        key = tuple(rng.randrange(dim) for _ in range(degree))
        col = table.setdefault(key, {})
        col[rng.randrange(dim)] = field.from_int(rng.randrange(1, 7))
    return FullCochain(dim, degree, field, table)


def test_criterion_6_transfer_identities():
    failures = []
    start = time.monotonic()
    rng = random.Random(20240814)

    af = parse_algebra_file(data_path("dual_numbers.alg"), F7)
    basis7 = compute_basis(af.quiver, af.relations, F7, 30)
    ctx = identity_context(basis7)
    for _ in range(20):
        f = random_full_cochain(rng, F7, basis7.dim, 2)
        if transfer_phi(ctx, f, 2) != f or transfer_psi(ctx, f, 2) != f:
            failures.append("identity context moves a cochain")

    for field in (F7, Q):
        af = parse_algebra_file(data_path("dual_numbers.alg"), field)
        basis = compute_basis(af.quiver, af.relations, field, 30)
        for n in (2, 3):
            ctx = matrix_context(basis, n)
            tag = "M_%d over %s" % (n, "F7" if field.char else "Q")
            for _ in range(20):
                f = random_full_cochain(rng, field, basis.dim, 2)
                df = full_differential(f, ctx.a)
                if full_differential(transfer_phi(ctx, f, 2), ctx.b) \
                        != transfer_phi(ctx, df, 3):
                    failures.append(tag + ": phi chain map")
                g = random_full_cochain(rng, field, ctx.b.dim, 2)
                if full_differential(transfer_psi(ctx, g, 2), ctx.a) \
                        != transfer_psi(ctx, full_differential(g, ctx.b), 3):
                    failures.append(tag + ": psi chain map")
                lhs = homotopy_h(ctx, df, 3) \
                    + full_differential(homotopy_h(ctx, f, 2), ctx.a)
                if lhs != f - transfer_psi(ctx, transfer_phi(ctx, f, 2), 2):
                    failures.append(tag + ": homotopy identity")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append("runtime %.1fs" % elapsed)
    report(6, "transfer chain maps and homotopy", failures,
           "%.1fs (< 30s)" % elapsed)


# 7. deformed Morita equivalence -------------------------------------------


def test_criterion_7_morita_equivalence():
    failures = []
    start = time.monotonic()
    for field in (Q, F7):
        tag = "F7" if field.char else "Q"
        for name in EXAMPLES:
            af, basis, f = example_cochain(name, field)
            ctx = identity_context(basis)
            for check, ok, detail in verify_morita_deformed(ctx, f):
                if not ok:
                    failures.append("%s/%s: %s (%s)" % (name, tag, check, detail))
        af, basis, f = example_cochain("dual_numbers", field)
        ctx = matrix_context(basis, 2)
        for check, ok, detail in verify_morita_deformed(ctx, f):
            if not ok:
                failures.append("M_2/%s: %s (%s)" % (tag, check, detail))
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append("runtime %.1fs" % elapsed)
    report(7, "deformed Morita equivalence certificates", failures,
           "%.1fs (< 30s)" % elapsed)


# 8. module category -------------------------------------------------------


def random_unitriangular(rng, d, field):
    lower = [[field.one if i == j
              else field.from_int(rng.randrange(-2, 3)) if i > j
              else field.zero for j in range(d)] for i in range(d)]
    upper = [[field.one if i == j
              else field.from_int(rng.randrange(-2, 3)) if i < j
              else field.zero for j in range(d)] for i in range(d)]
    return dense_matmul(lower, upper, field)


def test_criterion_8_module_category():
    failures = []
    for name in EXAMPLES:
        af, basis, f = example_cochain(name)
        deformed = DeformedAlgebra(basis, f)
        glued = functor_F(regular_uple(deformed))
        if glued.actions != regular_module(deformed).actions:
            failures.append(name + ": F(A, A, Id, f) is not the regular module")

    af, basis, f = example_cochain("dual_numbers")
    deformed = DeformedAlgebra(basis, f)
    rng = random.Random(5)
    done = 0
    for d in (1, 2, 3, 4, 2, 3, 4, 3, 4, 4):
        s = random_unitriangular(rng, d, Q)
        s_inv = dense_inverse(s, Q)
        nil = [[Q.from_int(rng.randrange(-1, 2)) if j > i else Q.zero
                for j in range(d)] for i in range(d)]
        x = dense_matmul(s, dense_matmul(nil, s_inv, Q), Q)
        x2 = dense_matmul(x, x, Q)
        mats = [[[Q.one if i == j else Q.zero for j in range(d)]
                 for i in range(d)], x, x2, dense_matmul(x2, x, Q)]
        mod = LeftModule(deformed, d, [sparse_of(m, Q) for m in mats])
        uple = reconstruct(mod).uple
        tri = roundtrip_triple(uple, functor_F(uple))
        if not tri.is_isomorphism():
            failures.append("dim %d module: round trip not invertible" % d)
        done += 1
    if done != 10:
        failures.append("only %d round trips ran" % done)
    report(8, "module category equivalence and uple round trips", failures)


# 9. property aggregates ---------------------------------------------------


def random_reduced_one_cochain(rng, basis):
    table = {}
    for i in basis.radical_indices:
        p = basis.paths[i]
        src, tgt = basis.quiver.path_source(p), basis.quiver.path_target(p)
        coeffs = {}
        for j in range(basis.dim):
            if (basis.path_source_of_index(j) == src
                    and basis.path_target_of_index(j) == tgt
                    and rng.randrange(2)):
                coeffs[j] = basis.field.from_int(rng.randrange(1, 5))
        if coeffs:
            table[(p,)] = AlgebraElement(basis, coeffs)
    return cochain_from_paths(basis, 1, table)


def random_walk(rng, q, length):
    v = rng.randrange(len(q.vertices))
    p = (v,)
    for _ in range(length):
        outgoing = [i for i, (_, s, _) in enumerate(q.arrows) if s == v]
        if not outgoing:
            break
        a = rng.choice(outgoing)
        p = p + (a,)
        v = q.arrows[a][2]
    return p


def test_criterion_9_property_suites():
    failures = []
    rng = random.Random(99)

    for name in EXAMPLES:
        af, basis, f = example_cochain(name)
        for _ in range(5):
            g = random_reduced_one_cochain(rng, basis)
            if not differential(differential(g, basis), basis).is_zero():
                failures.append(name + ": reduced d d != 0")
        for degree in (1, 2):
            h = random_full_cochain(rng, basis.field, basis.dim, degree)
            if not full_differential(full_differential(h, basis), basis).is_zero():
                failures.append(name + ": full d d != 0")

        q = af.quiver
        for _ in range(10):
            x = FreeElement.zero(q, basis.field)
            y = FreeElement.zero(q, basis.field)
            for _ in range(3):
                x = x + FreeElement.from_path(
                    q, basis.field, random_walk(rng, q, rng.randrange(5)),
                    basis.field.from_int(rng.randrange(-3, 4)))
                y = y + FreeElement.from_path(
                    q, basis.field, random_walk(rng, q, rng.randrange(5)),
                    basis.field.from_int(rng.randrange(-3, 4)))
            nx = basis.normal_form(x)
            if basis.normal_form(nx.to_free()) != nx:
                failures.append(name + ": normal form not idempotent")
            if basis.normal_form(x * y) != basis.normal_form(
                    nx.to_free() * basis.normal_form(y).to_free()):
                failures.append(name + ": normal form not multiplicative")

        emitted = emit_algebra_text(af.field, af.quiver, af.relations,
                                    params=af.params,
                                    cocycle_pairs=af.cocycle_pairs)
        back = parse_algebra_text(emitted)
        if (back.field != af.field or back.quiver != af.quiver
                or [r.terms for r in back.relations] != [r.terms for r in af.relations]
                or back.params != af.params
                or {k: v.terms for k, v in back.cocycle_pairs.items()}
                != {k: v.terms for k, v in af.cocycle_pairs.items()}):
            failures.append(name + ": parse(emit(...)) differs")

        deformed = DeformedAlgebra(basis, f)
        for _ in range(3):
            g = random_reduced_one_cochain(rng, basis)
            f2 = f + differential(g, basis)
            phi = deformation_equivalence(f, f2, basis)
            if phi is None:
                failures.append(name + ": coboundary shift not recognised")
                continue
            other = DeformedAlgebra(basis, f2)
            n = basis.dim
            pairs = [(basis.basis_element(i % n), basis.zero()) if i < n
                     else (basis.zero(), basis.basis_element(i % n))
                     for i in range(2 * n)]
            for x in pairs:
                for y in pairs:
                    lhs = phi.apply(deformed_multiply(x, y, deformed))
                    rhs = deformed_multiply(phi.apply(x), phi.apply(y), other)
                    if lhs[0] != rhs[0] or lhs[1] != rhs[1]:
                        failures.append(name + ": equivalence not multiplicative")
    report(9, "differential, normal form, file and equivalence properties",
           failures)
