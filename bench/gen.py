"""Seeded inputs and the job list of each workload.

`make_jobs(workload, seed, root, work)` writes every generated input
under `work` and returns the workload's jobs.  A job is one CLI call:
its phase ("fixtures" or "family"), its argument list, and a check of
its exit code and standard output.  Each check compares against a
closed form or against the benchmark's own computation in algebra.py,
never against a stored copy of the program's output.

The seed picks only coefficients: the coboundary added to a cocycle,
the scalar of a scaled cocycle, and the coefficient of a perturbation.
The algebras and the position of every perturbation are the same for
every seed; the coefficients change values, and through cancellation a
few table entries, so the work a job does hardly depends on the seed.
"""

import os
import random

import algebra as A
import check as C

FIXTURES = ("dual_numbers", "two_cycle", "quantum_plane", "triangle")
NONZERO = (-3, -2, -1, 1, 2, 3)


def require(ok, what):
    """Stop when a generated input is not what its construction promises."""
    if not ok:
        raise ValueError("generated input is wrong: " + what)


def fixture(root, name):
    path = os.path.join(root, "tests", "data", name + ".alg")
    with open(path, encoding="utf-8") as fh:
        spec = A.parse_file(fh.read())
    return path, spec


def fixture_algebra(root, name):
    path, spec = fixture(root, name)
    alg = A.algebra_of_spec(spec)
    return path, alg, A.cocycle_of_spec(alg, spec)


def random_coboundary(alg, rng):
    """d g for a degree-1 g with a nonzero coefficient on every coordinate."""
    g = {}
    for key, k in A.coordinates(alg, 1):
        g.setdefault(key, {})[k] = alg.field(rng.choice(NONZERO))
    return A.differential(alg, g, 1)


def perturbation(alg, rng):
    """c times the first basis 2-cochain whose differential is nonzero; the
    position is fixed, the coefficient c comes from the seed."""
    for (key, k), col in zip(A.coordinates(alg, 2), A.differential_columns(alg, 2)):
        if col:
            return {key: {k: alg.field(rng.choice(NONZERO))}}
    raise ValueError("every 2-cochain is a cocycle")


def deformed_table(alg, f):
    """Structure constants of A_f on (x_i, 0) = i and (0, x_i) = n + i."""
    n = alg.dim
    table = {}
    for (i, j), prod in alg.table.items():
        table[(i, j)] = dict(prod)
        table[(i, n + j)] = {n + k: c for k, c in prod.items()}
        table[(n + i, j)] = {n + k: c for k, c in prod.items()}
    for (i, j), val in f.items():
        entry = table.setdefault((i, j), {})
        for k, c in val.items():
            entry[n + k] = c
    labels = alg.labels + ["t*" + s for s in alg.labels]
    return 2 * n, table, labels


def regular_module_text(alg, f):
    """Module file of A_f acting on itself by left multiplication."""
    dim, table, labels = deformed_table(alg, f)
    lines = ["dim %d" % dim]
    for i in range(dim):
        rows = [[0] * dim for _ in range(dim)]
        for c in range(dim):
            for r, v in table.get((i, c), {}).items():
                rows[r][c] = v
        lines.append("act(%s) = %s" % (labels[i], " ; ".join(
            " ".join(alg.field.text(v) for v in row) for row in rows)))
    return "\n".join(lines) + "\n"


class Writer:
    def __init__(self, work):
        self.work = work
        os.makedirs(work, exist_ok=True)

    def __call__(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def job(phase, argv, check):
    return {"phase": phase, "argv": argv, "check": check}


def families(fld):
    """(name, algebra, cocycle, relation length) of the deform families."""
    out = []
    for n in (8, 12):
        alg = A.truncated_polynomial(fld, n)
        out.append(("trunc%d" % n, alg, A.cycle_cocycle(alg, n), n))
    for m, length in ((3, 6), (4, 8)):
        alg = A.cyclic_quiver(fld, m, length)
        out.append(("cyclic%d_%d" % (m, length), alg, A.cycle_cocycle(alg, length), length))
    return out


def cohomology_jobs(root, rng, write):
    jobs = []
    fld = A.Field(0)
    for name in FIXTURES:
        path, alg, f = fixture_algebra(root, name)
        require(not A.differential(alg, f, 2), name + ": f is not a cocycle")
        jobs.append(job("fixtures", ["hh", path], C.hh(*A.hh2(alg))))
        jobs.append(job("fixtures", ["check-cocycle", path], C.report(True)))
        shifted = A.combine(fld, (1, f), (1, random_coboundary(alg, rng)))
        other = write(name + "_shift.alg", alg.file_text(shifted, "f + dg"))
        jobs.append(job("fixtures", ["equiv", path, other], C.report(True)))
    # k[x]/(x^n) over Q and F_p: HH^2 is n - 1, or n when p divides n
    for n, p in ((3, 0), (4, 0), (5, 0), (5, 5), (5, 7), (6, 0), (6, 3)):
        path = write("trunc%d.alg" % n, A.truncated_polynomial(fld, n).file_text())
        z2, b2, _ = A.hh2(A.truncated_polynomial(A.Field(p), n))
        field = ["--field", "F%d" % p] if p else []
        jobs.append(job("family", ["hh"] + field + [path],
                        C.hh(z2, b2, n if p and n % p == 0 else n - 1)))
    for name, alg in (("exterior2", A.exterior_algebra(fld, ["x1", "x2"])),
                      ("cyclic2_4", A.cyclic_quiver(fld, 2, 4))):
        path = write(name + ".alg", alg.file_text())
        jobs.append(job("family", ["hh", path], C.hh(*A.hh2(alg))))
    return jobs


def deform_jobs(root, rng, write):
    jobs = []
    fld = A.Field(0)
    for name in FIXTURES:
        path, alg, f = fixture_algebra(root, name)
        jobs.append(job("fixtures", ["verify-deform", path], C.verify_deform(2 * alg.dim)))
        jobs.append(job("fixtures", ["deform", "--interreduce", path],
                        C.presentation(2 * alg.dim)))
    for name, alg, f, length in families(fld):
        require(not A.differential(alg, f, 2), name + ": f is not a cocycle")
        cap = ["--max-degree", str(2 * length + 2)]
        path = write(name + ".alg", alg.file_text(f, "cycle of length %d = t e_v" % length))
        jobs.append(job("family", ["verify-deform"] + cap + [path],
                        C.verify_deform(2 * alg.dim)))
        jobs.append(job("family", ["deform", "--interreduce"] + cap + [path],
                        C.presentation(2 * alg.dim)))
        bump = perturbation(alg, rng)
        require(A.differential(alg, bump, 2), name + ": the perturbation is a cocycle")
        bad = write(name + "_bad.alg",
                    alg.file_text(A.combine(fld, (1, f), (1, bump)), "not a cocycle"))
        jobs.append(job("family", ["check-cocycle"] + cap + [bad], C.report(False, "cocycle")))
        jobs.append(job("family", ["verify-deform"] + cap + [bad], C.report(False, "cocycle")))
        if name == "trunc8":
            module = write(name + "_regular.mod", regular_module_text(alg, f))
            jobs.append(job("family", ["module-roundtrip"] + cap + [path, module],
                            C.report(True)))
        if name == "cyclic3_6":
            require(not A.is_coboundary(alg, f), name + ": f is a coboundary")
            shifted = write(name + "_shift.alg", alg.file_text(
                A.combine(fld, (1, f), (1, random_coboundary(alg, rng))), "f + dg"))
            double = write(name + "_double.alg", alg.file_text(A.combine(fld, (2, f)), "2f"))
            jobs.append(job("family", ["equiv"] + cap + [path, shifted], C.report(True)))
            jobs.append(job("family", ["equiv"] + cap + [path, double],
                            C.report(False, "cohomologous")))
    return jobs


def morita_jobs(root, rng, write):
    jobs = []
    fld = A.Field(0)
    for name, n in (("dual_numbers", 2), ("dual_numbers", 3), ("two_cycle", 2),
                    ("quantum_plane", 2)):
        path, alg, f = fixture_algebra(root, name)
        jobs.append(job("fixtures", ["transfer", path, "--matrix", str(n)],
                        C.transfer_matrix(alg, f, n)))
        if (name, n) == ("dual_numbers", 2):
            jobs.append(job("fixtures", ["verify-morita", path, "--matrix", "2"],
                            C.report(True)))
    path, _ = fixture(root, "lambda_m2")
    jobs.append(job("fixtures", ["transfer", path, "--idempotent", "1"], C.transfer_zero()))
    jobs.append(job("fixtures", ["verify-morita", path, "--idempotent", "1"], C.report(True)))
    path, alg, f = fixture_algebra(root, "two_cycle")
    flag = ["--idempotent", "1,2"]
    jobs.append(job("fixtures", ["transfer", path] + flag, C.transfer_full_corner(alg, f)))
    jobs.append(job("fixtures", ["verify-morita", path] + flag, C.report(True)))
    trunc = A.truncated_polynomial(fld, 3)
    ext = A.exterior_algebra(fld, ["x1", "x2"])
    for name, alg, f in (("trunc3", trunc, A.cycle_cocycle(trunc, 3)),
                         ("exterior2", ext, A.clifford_cocycle(ext))):
        f = A.combine(fld, (fld(rng.choice(NONZERO)), f))
        require(not A.differential(alg, f, 2), name + ": f is not a cocycle")
        path = write(name + ".alg", alg.file_text(f, "scaled cocycle"))
        jobs.append(job("family", ["verify-morita", path, "--matrix", "2"], C.report(True)))
    return jobs


WORKLOADS = {"cohomology": cohomology_jobs, "deform": deform_jobs, "morita": morita_jobs}


def make_jobs(workload, seed, root, work):
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](root, rng, Writer(work))
