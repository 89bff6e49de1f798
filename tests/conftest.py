"""Shared fixtures.

The first-passage system fixtures are session-scoped on purpose: the
singularity bracket and the fold refinement are the expensive parts and
every kernel test downstream reuses them through the solve cache.
"""

import pytest
from mpmath import ctx_mp_python

from treewalks import FirstPassageSystem, geometry, preset


@pytest.fixture(scope="session")
def t3_spec():
    return preset("t3-lazy-iso")


@pytest.fixture(scope="session")
def f2_spec():
    return preset("f2-lazy-uniform")


@pytest.fixture(scope="session")
def z_spec():
    return preset("z-lazy")


@pytest.fixture(scope="session")
def t3xz():
    return preset("t3xZ")


@pytest.fixture(scope="session")
def t3xt3():
    return preset("t3xt3")


@pytest.fixture(scope="session")
def f2_system(f2_spec):
    system = FirstPassageSystem(f2_spec)
    system.radius()  # warm the bracket; fold() and expansion() reuse it
    return system


@pytest.fixture(scope="session")
def z_system(z_spec):
    return FirstPassageSystem(z_spec)


@pytest.fixture
def count_reduced_words(monkeypatch):
    """Call a function and return how many ReducedWords it built."""
    count = 0
    check = geometry.ReducedWord.__post_init__

    def counted(self):
        nonlocal count
        count += 1
        check(self)

    monkeypatch.setattr(geometry.ReducedWord, "__post_init__", counted)

    def run(call) -> int:
        nonlocal count
        count = 0
        call()
        return count

    return run


MPF_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


@pytest.fixture
def count_mpf_operators(monkeypatch):
    """Call a function and return how many mpf arithmetic and comparison
    operators it called."""
    count = 0

    def counted(method):
        def call(*args):
            nonlocal count
            count += 1
            return method(*args)

        return call

    for name in MPF_OPERATORS:
        method = getattr(ctx_mp_python._mpf, name)
        monkeypatch.setattr(ctx_mp_python._mpf, name, counted(method))

    def run(call) -> int:
        nonlocal count
        count = 0
        call()
        return count

    return run
