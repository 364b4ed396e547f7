import os
import re
import warnings
from collections import namedtuple
from itertools import accumulate

import pytest
from hypothesis import Phase, assume, settings
from hypothesis import strategies as st

from quivdeform.errors import NotFiniteDimensional, SizeLimitExceeded
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file
from quivdeform.morita import Bimodule, MoritaContext
from quivdeform.quiver import FreeElement, Quiver, compute_basis

from oracles import brute_bimodule_defects, brute_block_ring, brute_greedy_generators

DATA = os.path.join(os.path.dirname(__file__), "data")

# On a failing example the Hypothesis plugin imports
# hypothesis.extra._patching, which imports libcst, whose use of
# mypy_extensions.TypedDict warns.  Under -W error that warning, raised
# inside the reporting hook, ends the session with INTERNALERROR instead
# of a failure report, and a filterwarnings setting does not reach it,
# since -W on the command line overrides it.  Importing the module once
# here, with that one warning ignored, keeps the reports.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def data_path(name):
    return os.path.join(DATA, name)


def identity_context(alg):
    """A seen as Morita equivalent to itself through the regular bimodule."""
    reg = Bimodule(alg, alg, alg.dim, alg.table, alg.table, check=False)
    pairing = {(i, j): alg.multiply_basis(i, j)
               for i in range(alg.dim) for j in range(alg.dim)}
    gen = [(dict(alg.unit), dict(alg.unit))]
    return MoritaContext(alg, alg, reg, reg, dict(pairing), dict(pairing),
                         list(gen), list(gen))


def load(name):
    return parse_algebra_file(data_path(name))


def load_basis(name, max_degree=30):
    af = load(name)
    return af, compute_basis(af.quiver, af.relations, af.field, max_degree)


@pytest.fixture(scope="session")
def dual_numbers():
    return load_basis("dual_numbers.alg")


@pytest.fixture(scope="session")
def two_cycle():
    return load_basis("two_cycle.alg")


@pytest.fixture(scope="session")
def triangle():
    return load_basis("triangle.alg")


@pytest.fixture(scope="session")
def quantum_plane():
    return load_basis("quantum_plane.alg")


@pytest.fixture(scope="session")
def lambda_m2():
    return load_basis("lambda_m2.alg")


# ------------------------------------------------------ drawn algebras

# the settings of every test that draws algebras: the same draws on every
# run and every Python, and no health check suppressed
settings.register_profile("drawn-algebras", derandomize=True, max_examples=40,
                          deadline=None, database=None)
DRAWN_ALGEBRAS = settings.get_profile("drawn-algebras")
# a failure is reported without the explain phase, which traces every
# line of a dense oracle and takes minutes
QUICK_REPORT = [phase for phase in Phase if phase is not Phase.explain]


def quiver_paths(quiver, lengths):
    """The paths of the quiver with a number of arrows in lengths."""
    layer = [(v,) for v in range(len(quiver.vertices))]
    out = []
    for n in range(max(lengths) + 1):
        if n in lengths:
            out.extend(layer)
        layer = [p + (a,) for p in layer for a, (_, s, _) in enumerate(quiver.arrows)
                 if s == quiver.path_target(p)]
    return out


@st.composite
def bound_quiver_algebras(draw):
    """The basis of kQ/I for a drawn quiver Q, with 1 to 3 vertices and 1
    to 3 arrows, and 1 to 6 drawn relations over Q, F_3, F_5 or F_7.  A
    relation is a path of 2 or 3 arrows, or such a path plus c times a
    parallel path of 1 to 3 arrows, c in {1, -1, 2, -3}.  A draw is kept
    when the basis is certified below length 8, has dimension at most
    24, and no product of radical basis paths has a component at a
    vertex."""
    nv = draw(st.integers(1, 3))
    ends = st.integers(0, nv - 1)
    arrows = [("a%d" % k, str(draw(ends)), str(draw(ends)))
              for k in range(draw(st.integers(1, 3)))]
    quiver = Quiver([str(v) for v in range(nv)], arrows)
    field = draw(st.sampled_from((Field.rationals(), Field.prime(3), Field.prime(5),
                                  Field.prime(7))))
    long = quiver_paths(quiver, (2, 3))
    assume(long)
    relations = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from(long))
        terms = {p: field.one}
        parallel = [r for r in quiver_paths(quiver, (1, 2, 3)) if r != p
                    and (r[0], quiver.path_target(r)) == (p[0], quiver.path_target(p))]
        if parallel and draw(st.booleans()):
            c = field.from_int(draw(st.sampled_from((1, -1, 2, -3))))
            terms[draw(st.sampled_from(parallel))] = c
        relations.append(FreeElement(quiver, field, terms))
    try:
        basis = compute_basis(quiver, relations, field, max_degree=8)
    except (NotFiniteDimensional, SizeLimitExceeded):
        assume(False)
    assume(basis.dim <= 24)
    trivial = set(basis.trivial_indices)
    assume(not any(trivial & set(prod) for (x, y), prod in basis.table.items()
                   if x not in trivial and y not in trivial))
    return basis


# ------------------------------------------------- witnesses of block rings


def raw_algebra(alg):
    return (alg.dim, alg.table, alg.unit)


def raw_bimodule(m):
    return (m.dim, m.left, m.right)


# the blocks of the ring [[A, P], [Q, B]] in the triple that each oracle
# kind names, in the order of its index tuple: the kinds of
# brute_context_defects, then those of brute_bimodule_defects on P and Q
RING_BLOCKS = {"a.p,q": "APQ", "p,q.a": "PQA", "p.b,q": "PBQ", "b.q,p": "BQP",
               "q,p.b": "QPB", "q.a,p": "QAP", "pqp": "PQP", "qpq": "QPQ",
               "P left assoc": "AAP", "P right assoc": "PBB", "P commute": "APB",
               "Q left assoc": "BBQ", "Q right assoc": "QAA", "Q commute": "BQA"}
KIND_OF_BLOCKS = {blocks: kind for kind, blocks in RING_BLOCKS.items()}

RING_MESSAGES = (
    (r"the %s ring is not associative at \((.+), (.+), (.+)\)$", "ring"),
    (r"the %s ring: unit fails on basis element (.+)$", "unit"),
    (r"gens_a do not decompose 1_A at (a:.+)$", "unit A"),
    (r"gens_b do not decompose 1_B at (b:.+)$", "unit B"),
)

# A ring of block_ring as the oracles see it: its name in messages
# ("Morita" or "bimodule"), the algebras A and B (read for their labels),
# the dimensions of A, P, Q and B, the oracle's raw ring and the field.
RingBlocks = namedtuple("RingBlocks", "name a b sizes raw field")


def context_blocks(ctx):
    """The RingBlocks of the Morita ring of a context."""
    raw = brute_block_ring(raw_algebra(ctx.a), raw_algebra(ctx.b), raw_bimodule(ctx.p),
                           raw_bimodule(ctx.q), ctx.pairing_a, ctx.pairing_b, ctx.field)
    sizes = (ctx.a.dim, ctx.p.dim, ctx.q.dim, ctx.b.dim)
    return RingBlocks("Morita", ctx.a, ctx.b, sizes, raw, ctx.field)


def bimodule_blocks(left_alg, right_alg, raw_left, raw_right, bim, field):
    """(RingBlocks, defects) of the ring [[A, M], [0, B]] of the raw
    bimodule bim = (dim, left, right) over the raw algebras raw_left and
    raw_right, whose labels are those of left_alg and right_alg: the
    defects of brute_bimodule_defects, their kinds prefixed with "P "."""
    defects = [("P " + kind, tup)
               for kind, tup in brute_bimodule_defects(raw_left, raw_right, *bim, field)]
    raw = brute_block_ring(raw_left, raw_right, bim, None, None, None, field)
    sizes = (raw_left[0], bim[0], 0, raw_right[0])
    return RingBlocks("bimodule", left_alg, right_alg, sizes, raw, field), defects


def block_starts(sizes):
    """The index of the first basis element of each block of the ring."""
    return dict(zip("APQB", accumulate((0,) + tuple(sizes[:3]))))


def ring_element(blocks, label):
    """(block, index in the block) of a basis label of the ring."""
    if label[:2] in ("a:", "b:"):
        alg = blocks.a if label[0] == "a" else blocks.b
        return label[0].upper(), alg.labels.index(label[2:])
    block, i = label[0].upper(), int(label[1:])
    assert 0 <= i < blocks.sizes["APQB".index(block)], label
    return block, i


def ring_triple(blocks, kind, indices):
    """The basis indices in the ring of the triple an oracle defect names."""
    start = block_starts(blocks.sizes)
    return tuple(start[block] + i for block, i in zip(RING_BLOCKS[kind], indices))


def ring_witness(message, blocks, defects):
    """The oracle defect (kind, index tuple) that a ring message names,
    asserted to be among the oracle's defects: for a triple of the ring,
    the kind of its blocks; for a unit failure of the ring, the first
    unit defect of P or Q at that basis element; for a generator list,
    the coordinate where its sum first differs from the unit."""
    for pattern, kind in RING_MESSAGES:
        hit = re.match(pattern.replace("%s", blocks.name), message)
        if not hit:
            continue
        if kind == "ring":
            elements = [ring_element(blocks, label) for label in hit.groups()]
            names = "".join(block for block, _ in elements)
            witness = (KIND_OF_BLOCKS.get(names, names), tuple(i for _, i in elements))
        elif kind == "unit":
            block, i = ring_element(blocks, hit.group(1))
            witness = next((d for d in defects if d[1] == (i,)
                            and d[0] in (block + " left unit", block + " right unit")), None)
        else:
            witness = (kind, (ring_element(blocks, hit.group(1))[1],))
        assert witness in defects, (message, defects)
        return witness
    raise AssertionError("unparsed %s ring error: %s" % (blocks.name, message))


def assert_ring_message(message, blocks, defects):
    """message is None exactly when the oracle finds no defect, and
    otherwise names the first defect that the checks of the ring reach,
    in their order: the unit of the ring on each basis element, the
    oracle's unit defect of least ring index; else the triples (r, j, k)
    of the ring in that order, for r in the support of the unit or a
    greedy generator of the oracle's ring, the first that the oracle
    flags; else the first remaining defect.  Returns whether message is
    None."""
    if message is None:
        assert not defects, defects[:1]
        return True
    kind, indices = ring_witness(message, blocks, defects)
    start = block_starts(blocks.sizes)
    units = sorted(start[k[0]] + tup[0] for k, tup in defects
                   if k.endswith(("left unit", "right unit")))
    dim, table, unit = blocks.raw
    firsts = set(unit) | set(brute_greedy_generators(dim, table, unit, blocks.field))
    triples = sorted(t for t in (ring_triple(blocks, k, tup) for k, tup in defects
                                 if k in RING_BLOCKS) if t[0] in firsts)
    if units:
        assert kind.endswith(("left unit", "right unit")), (message, defects)
        assert start[kind[0]] + indices[0] == units[0], (message, defects)
    elif triples:
        assert ring_triple(blocks, kind, indices) == triples[0], (message, triples[0])
    else:
        assert (kind, indices) == defects[0], (message, defects)
    return False
