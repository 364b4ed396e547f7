"""The benchmark's own exact algebra, written apart from quivdeform.

Nothing here imports the package under test.  It builds structure
constants for monomial quiver algebras (by path concatenation) and for
exterior algebras, the reduced Hochschild complex relative to the
vertex idempotents in degrees 1 to 3, the unreduced complex on a matrix
algebra, and rank by sparse elimination.  The benchmark uses it to make
the derived inputs (shifted, scaled and perturbed cocycles, module
files) and to check what the program prints.

Conventions follow the algebra file format: paths multiply left to
right, `e(v)` is the trivial path at v, and a basis path is written as
its arrow names joined by `*`.  Basis order is (length, arrow
declaration indices, vertex), and an exterior monomial is written with
its later-declared letters first, so labels and the order of basis
elements agree with the program's own basis.
"""

import re
from fractions import Fraction


class Field:
    """Q (p = 0) or F_p on plain Python numbers."""

    def __init__(self, p=0):
        self.p = p

    def __call__(self, x):
        return Fraction(x) if self.p == 0 else Fraction(x).numerator * pow(
            Fraction(x).denominator, -1, self.p) % self.p

    def inv(self, x):
        return 1 / Fraction(x) if self.p == 0 else pow(x, -1, self.p)

    def header(self):
        return "field Q" if self.p == 0 else "field F %d" % self.p

    def text(self, x):
        return str(Fraction(x)) if self.p == 0 else str(x % self.p)


def add_into(fld, acc, vec, c=1):
    """acc += c * vec on sparse dicts, dropping zeros; returns acc."""
    for k, v in vec.items():
        s = fld(acc.get(k, 0) + c * v)
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


class Algebra:
    """Finite-dimensional algebra kQ/I given by structure constants on a
    basis of paths.  paths[i] is (vertex index, tuple of arrow indices)."""

    def __init__(self, fld, vertices, arrows, relations, paths, product):
        self.field = fld
        self.vertices = list(vertices)
        self.arrows = list(arrows)  # (name, source index, target index)
        self.relations = list(relations)  # relation lines as text
        paths = sorted(paths, key=lambda p: (len(p[1]), p[1], p[0]))
        self.paths = paths
        self.dim = len(paths)
        self.index = {p: i for i, p in enumerate(paths)}
        self.labels = [self.path_text(p) for p in paths]
        self.label_index = {s: i for i, s in enumerate(self.labels)}
        self.src = [p[0] for p in paths]
        self.tgt = [p[0] if not p[1] else self.arrows[p[1][-1]][2] for p in paths]
        self.radical = [i for i, p in enumerate(paths) if p[1]]
        self.table = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if self.tgt[i] != self.src[j]:
                    continue
                prod = product(paths[i], paths[j])
                if prod:
                    self.table[(i, j)] = {self.index[p]: fld(c) for p, c in prod.items()}

    def path_text(self, p):
        if not p[1]:
            return "e(%s)" % self.vertices[p[0]]
        return "*".join(self.arrows[a][0] for a in p[1])

    def mul(self, x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                prod = self.table.get((i, j))
                if prod:
                    add_into(self.field, out, prod, a * b)
        return out

    def corner(self, s, t):
        return [k for k in range(self.dim) if self.src[k] == s and self.tgt[k] == t]

    def vec_text(self, vec):
        """Signed sum of scalar*path terms, as algebra files write them."""
        parts = []
        for k in sorted(vec):
            c = Fraction(vec[k]) if self.field.p == 0 else vec[k]
            sign = "-" if self.field.p == 0 and c < 0 else "+"
            mag = -c if sign == "-" else c
            body = self.labels[k] if mag == 1 else "%s*%s" % (self.field.text(mag), self.labels[k])
            parts.append((sign, body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return text + "".join(" %s %s" % part for part in parts[1:])

    def file_text(self, cocycle=None, comment=None):
        """Algebra file with one cocycle line per nonzero table entry."""
        lines = ["# " + comment] if comment else []
        lines.append(self.field.header())
        lines.append("vertex " + " ".join(self.vertices))
        lines += ["arrow %s : %s -> %s" % (n, self.vertices[s], self.vertices[t])
                  for n, s, t in self.arrows]
        lines += ["relation " + r for r in self.relations]
        for key in sorted(cocycle or {}):
            lines.append("cocycle f(%s, %s) = %s" % (
                self.labels[key[0]], self.labels[key[1]], self.vec_text(cocycle[key])))
        return "\n".join(lines) + "\n"


def _words(arrows, nverts, keep, max_len):
    """All paths whose every prefix passes keep(), up to max_len arrows."""
    layer = [(v, ()) for v in range(nverts)]
    out = []
    while layer:
        out += layer
        nxt = []
        for v, w in layer:
            end = v if not w else arrows[w[-1]][2]
            for a, (_, s, _) in enumerate(arrows):
                if s == end and keep(w + (a,)):
                    nxt.append((v, w + (a,)))
        if nxt and len(nxt[0][1]) > max_len:
            raise ValueError("the algebra is not finite-dimensional below length %d" % max_len)
        layer = nxt
    return out


def monomial_algebra(fld, vertices, arrows, zero_words, max_len=64):
    """kQ/I for I spanned by paths containing one of zero_words (tuples of
    arrow names).  Products are concatenations, or zero."""
    names = [a[0] for a in arrows]
    vidx = {v: i for i, v in enumerate(vertices)}
    arr = [(n, vidx[s], vidx[t]) for n, s, t in arrows]
    zeros = [tuple(names.index(n) for n in w) for w in zero_words]

    def keep(w):
        return not any(w[i:i + len(z)] == z for z in zeros for i in range(len(w) - len(z) + 1))

    paths = _words(arr, len(vertices), keep, max_len)
    basis = set(paths)

    def product(p, q):
        w = (p[0], p[1] + q[1])
        return {w: 1} if w in basis else {}

    rels = ["*".join(w) for w in zero_words]
    return Algebra(fld, vertices, arr, rels, paths, product)


def exterior_algebra(fld, names):
    """Exterior algebra on the given letters, as loops at one vertex with
    relations x*x and x*y + y*x; basis words list letters in decreasing
    declaration order."""
    m = len(names)
    arr = [(n, 0, 0) for n in names]
    paths = []
    for mask in range(1 << m):
        paths.append((0, tuple(i for i in reversed(range(m)) if mask >> i & 1)))

    def product(p, q):
        w = list(p[1] + q[1])
        if len(set(w)) < len(w):
            return {}
        sign = 1
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[i] < w[j]:
                    sign = -sign
        return {(0, tuple(sorted(w, reverse=True))): sign}

    rels = ["%s*%s" % (x, x) for x in names]
    rels += ["%s*%s + %s*%s" % (names[i], names[j], names[j], names[i])
             for i in range(m) for j in range(i + 1, m)]
    return Algebra(fld, ["1"], arr, rels, paths, product)


def truncated_polynomial(fld, n):
    """k[x]/(x^n) as the one-loop quiver with relation x^n."""
    return monomial_algebra(fld, ["1"], [("x", "1", "1")], [("x",) * n])


def cyclic_quiver(fld, m, length):
    """Oriented m-cycle a1: 1 -> 2, ..., am: m -> 1, every path of the
    given length set to zero."""
    verts = [str(i + 1) for i in range(m)]
    arrows = [("a%d" % (i + 1), verts[i], verts[(i + 1) % m]) for i in range(m)]
    zero = [tuple("a%d" % ((s + k) % m + 1) for k in range(length)) for s in range(m)]
    return monomial_algebra(fld, verts, arrows, zero)


def cycle_cocycle(alg, length):
    """The cocycle of "each cycle of the given length = t e_v": for basis
    paths a, b of lengths i, j with i + j >= length, f(a, b) is the path
    of length i + j - length that starts where a starts."""
    f = {}
    for i in alg.radical:
        for j in alg.radical:
            (v, wa), (_, wb) = alg.paths[i], alg.paths[j]
            if alg.tgt[i] != alg.src[j] or len(wa) + len(wb) < length:
                continue
            rest = (v, (wa + wb)[length:])
            f[(i, j)] = {alg.index[rest]: alg.field(1)}
    return f


def clifford_cocycle(alg):
    """First-order part of the Clifford deformation x1*x1 = t of an
    exterior algebra: f(a, b) is the t-coefficient of the product."""
    f = {}
    for i in alg.radical:
        for j in alg.radical:
            w = alg.paths[i][1] + alg.paths[j][1]
            if w.count(0) != 2 or len(set(w)) != len(w) - 1:
                continue
            # sorting w into decreasing order brings the two copies of the
            # first letter together at the end; distinct letters anticommute
            inversions = sum(1 for p in range(len(w)) for q in range(p + 1, len(w))
                             if w[p] < w[q])
            rest = tuple(sorted((a for a in w if a != 0), reverse=True))
            f[(i, j)] = {alg.index[(0, rest)]: alg.field((-1) ** inversions)}
    return f


# ---------------------------------------------------------------- reduced complex

def composable(alg, n):
    """Composable n-tuples of radical basis indices."""
    out = [(i,) for i in alg.radical]
    for _ in range(n - 1):
        out = [t + (j,) for t in out for j in alg.radical if alg.tgt[t[-1]] == alg.src[j]]
    return out


def coordinates(alg, n):
    """(key, value index) pairs spanning reduced n-cochains."""
    return [(key, k) for key in composable(alg, n)
            for k in alg.corner(alg.src[key[0]], alg.tgt[key[-1]])]


def differential_columns(alg, n):
    """d of each basis n-cochain, pushed forward key by key: a list of
    sparse columns {((n+1)-key, value index): scalar}."""
    fld = alg.field
    rad = alg.radical
    splits = {}  # r -> [(x, y, c)] with c the coefficient of r in x*y
    for x in rad:
        for y in rad:
            for r, c in alg.table.get((x, y), {}).items():
                splits.setdefault(r, []).append((x, y, c))
    starts = {}
    ends = {}
    for r in rad:
        starts.setdefault(alg.src[r], []).append(r)
        ends.setdefault(alg.tgt[r], []).append(r)
    cols = []
    for key, k in coordinates(alg, n):
        col = {}

        def put(new_key, vec, c):
            for idx, v in vec.items():
                s = fld(col.get((new_key, idx), 0) + c * v)
                if s:
                    col[(new_key, idx)] = s
                else:
                    col.pop((new_key, idx), None)

        for a in ends.get(alg.src[key[0]], []):
            put((a,) + key, alg.table.get((a, k), {}), 1)
        for j in range(n):
            for x, y, c in splits.get(key[j], []):
                put(key[:j] + (x, y) + key[j + 1:], {k: 1}, c * (-1) ** (j + 1))
        for b in starts.get(alg.tgt[key[-1]], []):
            put(key + (b,), alg.table.get((k, b), {}), (-1) ** (n + 1))
        cols.append(col)
    return cols


def differential(alg, f, n):
    """d f for a reduced n-cochain f (dict key -> vector), as a reduced
    (n+1)-cochain."""
    flat = {}
    for (key, k), col in zip(coordinates(alg, n), differential_columns(alg, n)):
        c = f.get(key, {}).get(k)
        if c:
            add_into(alg.field, flat, col, c)
    out = {}
    for (key, k), c in flat.items():
        out.setdefault(key, {})[k] = c
    return out


class Eliminator:
    """Sparse Gaussian elimination on dict vectors; the pivot of a vector is
    its smallest key."""

    def __init__(self, fld):
        self.field = fld
        self.pivots = {}

    def reduce(self, vec):
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = self.pivots.get(p)
            if row is None:
                return vec
            add_into(self.field, vec, row, -vec[p])
        return vec

    def add(self, vec):
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        inv = self.field.inv(vec[p])
        self.pivots[p] = {k: self.field(v * inv) for k, v in vec.items()}
        return True


def rank(fld, cols):
    elim = Eliminator(fld)
    return sum(1 for c in cols if elim.add(c))


def hh2(alg):
    """(dim Z^2, dim B^2, dim HH^2) of the reduced complex."""
    d2 = differential_columns(alg, 2)
    z2 = len(d2) - rank(alg.field, d2)
    b2 = rank(alg.field, differential_columns(alg, 1))
    return z2, b2, z2 - b2


def flatten(f):
    return {(key, k): c for key, vec in f.items() for k, c in vec.items()}


def is_coboundary(alg, f):
    """Is the reduced 2-cochain f equal to d g for some 1-cochain g?"""
    elim = Eliminator(alg.field)
    for col in differential_columns(alg, 1):
        elim.add(col)
    return not elim.reduce(flatten(f))


def combine(fld, *terms):
    """Sum of c * f over (c, f) pairs of cochain tables."""
    out = {}
    for c, f in terms:
        for key, vec in f.items():
            val = add_into(fld, dict(out.get(key, {})), vec, c)
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


# ---------------------------------------------------------------- matrix algebras

def matrix_algebra(alg, n):
    """Structure constants of M_n(A) on E_rc*x_g, index (r*n + c)*dim + g,
    with the labels `E<r><c>*<label>`."""
    labels = ["E%d%d*%s" % (r + 1, c + 1, alg.labels[g])
              for r in range(n) for c in range(n) for g in range(alg.dim)]
    return n * n * alg.dim, matrix_lift(alg, alg.table, n), labels


def matrix_lift(alg, f, n):
    """E_ij a (x) E_jl b -> E_il f(a, b) for a table f of bilinear values on
    A (a 2-cochain, or the product itself)."""
    d = alg.dim
    out = {}
    for (g, h), vec in f.items():
        for r in range(n):
            for c in range(n):
                for c2 in range(n):
                    out[((r * n + c) * d + g, (c * n + c2) * d + h)] = {
                        (r * n + c2) * d + k: v for k, v in vec.items()}
    return out


def full_cocycle_witness(fld, dim, table, g):
    """The first basis triple at which d g is nonzero, for a full 2-cochain
    g (dict (i, j) -> vector) on the algebra with these structure
    constants; None when g is a 2-cocycle."""
    def mul(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                prod = table.get((i, j))
                if prod:
                    add_into(fld, out, prod, a * b)
        return out

    def ev(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                val = g.get((i, j))
                if val:
                    add_into(fld, out, val, a * b)
        return out

    for i in range(dim):
        for j in range(dim):
            xy = table.get((i, j), {})
            for k in range(dim):
                x, y, z = {i: 1}, {j: 1}, {k: 1}
                total = mul(x, g.get((j, k), {}))
                add_into(fld, total, ev(xy, z), -1)
                add_into(fld, total, ev(x, table.get((j, k), {})), 1)
                add_into(fld, total, mul(g.get((i, j), {}), z), -1)
                if total:
                    return (i, j, k)
    return None


def full_is_coboundary(fld, dim, table, h):
    """Is the full 2-cochain h equal to d u for a full 1-cochain u?"""
    elim = Eliminator(fld)
    for i in range(dim):
        for k in range(dim):
            # (d delta_{i,k})(x, y) = x delta(y) - delta(xy) + delta(x) y
            col = {}
            for x in range(dim):
                for idx, v in table.get((x, k), {}).items():
                    add_into(fld, col, {((x, i), idx): v})
                for y in range(dim):
                    c = table.get((x, y), {}).get(i)
                    if c:
                        add_into(fld, col, {((x, y), k): c}, -1)
            for y in range(dim):
                for idx, v in table.get((k, y), {}).items():
                    add_into(fld, col, {((i, y), idx): v})
            elim.add(col)
    return not elim.reduce(flatten(h))


# ---------------------------------------------------------------- algebra files

_TRIVIAL = re.compile(r"^e\((\w+)\)$")
_SCALAR = re.compile(r"^-?\d+(/\d+)?$")


def parse_file(text):
    """Own reader of the algebra file format: field, quiver, params,
    relations and cocycle lines, with expressions kept as term lists
    [(coefficient, [factor names])]."""
    spec = {"p": 0, "vertices": [], "arrows": [], "params": {}, "relations": [], "cocycle": []}
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            spec["p"] = 0 if rest == "Q" else int(rest.split()[1])
        elif head == "vertex":
            spec["vertices"] += rest.split()
        elif head == "arrow":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", rest)
            spec["arrows"].append(m.groups())
        elif head == "param":
            name, _, value = rest.partition("=")
            spec["params"][name.strip()] = Fraction(value.strip())
        elif head == "relation":
            spec["relations"].append(parse_terms(rest, spec["params"]))
        elif head == "cocycle":
            m = re.match(r"^f\((.*?),(.*?)\)\s*=\s*(.*)$", rest)
            spec["cocycle"].append((m.group(1).strip(), m.group(2).strip(),
                                    parse_terms(m.group(3), spec["params"])))
        else:
            raise ValueError("unknown directive %r" % head)
    return spec


def parse_terms(text, params):
    terms = []
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", "".join(text.split())):
        c = Fraction(-1 if sign == "-" else 1)
        factors = []
        for tok in body.split("*"):
            if _SCALAR.match(tok):
                c *= Fraction(tok)
            elif tok in params:
                c *= params[tok]
            else:
                factors.append(tok)
        terms.append((c, factors))
    return terms


def element(alg, terms):
    """Value in alg of [(coefficient, [factors])], factors being arrow
    names or e(v)."""
    names = {n: i for i, (n, _, _) in enumerate(alg.arrows)}
    out = {}
    for c, factors in terms:
        vec = {k: 1 for k in range(alg.dim) if not alg.paths[k][1]}
        for tok in factors:
            m = _TRIVIAL.match(tok)
            if m:
                piece = {alg.index[(alg.vertices.index(m.group(1)), ())]: 1}
            else:
                a = names[tok]
                piece = {alg.index[(alg.arrows[a][1], (a,))]: 1}
            vec = alg.mul(vec, piece)
        add_into(alg.field, out, vec, c)
    return out


def algebra_of_spec(spec):
    """Own algebra for a parsed file whose relations are monomial or are
    exactly the exterior relations on all arrows.  Raises ValueError for
    any other kind of file."""
    fld = Field(spec["p"])
    rels = spec["relations"]
    if all(len(t) == 1 for t in rels):
        return monomial_algebra(fld, spec["vertices"], spec["arrows"],
                                [tuple(t[0][1]) for t in rels])
    names = [a[0] for a in spec["arrows"]]
    if len(spec["vertices"]) == 1 and len(rels) == len(names) * (len(names) + 1) // 2:
        alg = exterior_algebra(fld, names)
        # relations that vanish in the exterior algebra and are independent
        # span its whole ideal, which is generated in degree 2
        elim = Eliminator(fld)
        independent = 0
        for terms in rels:
            if element(alg, terms):
                break
            vec = {}
            for c, f in terms:
                add_into(fld, vec, {tuple(f): 1}, c)
            independent += elim.add(vec)
        else:
            if independent == len(rels):
                return alg
    raise ValueError("relations are neither monomial nor exterior")


def cocycle_of_spec(alg, spec):
    """The file's cocycle lines as a reduced 2-cochain table on alg."""
    f = {}
    for a, b, terms in spec["cocycle"]:
        val = element(alg, terms)
        if val:
            f[(alg.label_index[a], alg.label_index[b])] = val
    return f
