import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import oracles
from minpinv.experiments import build_poisson, perturb_rhs
from minpinv.linalg import svd

FULL_SCALE = os.environ.get("MINPINV_FULL_SCALE", "") == "1"

fullscale = pytest.mark.skipif(
    not FULL_SCALE, reason="manual gate: set MINPINV_FULL_SCALE=1"
)


def pytest_collection_modifyitems(items):
    for item in items:
        if "fullscale" in item.keywords and not FULL_SCALE:
            item.add_marker(
                pytest.mark.skip(reason="manual gate: set MINPINV_FULL_SCALE=1")
            )


@pytest.fixture(scope="session")
def desk_problem():
    return build_poisson(199, 201, 0.1)


@pytest.fixture(scope="session")
def desk_factors(desk_problem):
    return svd(desk_problem.matrix)


@pytest.fixture(scope="session")
def full_problem():
    return build_poisson(1991, 2001, 0.1)


@pytest.fixture(scope="session")
def full_factors(full_problem):
    return svd(full_problem.matrix)


@pytest.fixture(scope="session")
def projection_cases():
    """(factors, right-hand side) pairs whose numerical rank is below m:
    the 299x301 model problem (rank 198) and a random rank-deficient one."""
    rng = np.random.default_rng(7)
    problem = build_poisson(299, 301, 0.1)
    deficient = oracles.rank_matrix(rng, 30, 24, 11)
    return [(svd(problem.matrix), perturb_rhs(problem.exact_rhs, 0.05, 0)),
            (svd(deficient), rng.standard_normal(30))]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
