import os

import pytest

from quivdeform.fileio import parse_algebra_file
from quivdeform.morita import Bimodule, MoritaContext
from quivdeform.quiver import compute_basis

DATA = os.path.join(os.path.dirname(__file__), "data")


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
