"""Shared fixtures.

The first-passage system fixtures are session-scoped on purpose: the
singularity bracket and the fold refinement are the expensive parts and
every kernel test downstream reuses them through the solve cache.
"""

import pytest

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
