import pathlib

import pytest
from morgan_unify import (
    DIAMOND,
    enumerate_invposets_upto,
    enumerate_posets_upto,
    validate_involutive,
    validate_poset,
)
from morgan_unify.gallery import (
    crown_poset,
    free_demorgan_one,
    k1_pattern_instance,
    k2_pattern_instance,
    m1_pattern_instance,
    m2_pattern_instance,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def diamond():
    return DIAMOND


@pytest.fixture(scope="session")
def fm1():
    return free_demorgan_one()


@pytest.fixture(scope="session")
def crown():
    return crown_poset()


@pytest.fixture(scope="session")
def pattern_instances():
    return {
        "k1": k1_pattern_instance(),
        "k2": k2_pattern_instance(),
        "m1": m1_pattern_instance(),
        "m2": m2_pattern_instance(),
    }


@pytest.fixture(scope="session")
def point():
    return validate_involutive(validate_poset(["p"], []), {"p": "p"})


@pytest.fixture(scope="session")
def antichain_swap():
    return validate_involutive(validate_poset(["a", "b"], []), {"a": "b", "b": "a"})


@pytest.fixture(scope="session")
def posets_upto_6():
    """One poset per isomorphism class, at most 6 points (406 classes)."""
    return list(enumerate_posets_upto(6))


@pytest.fixture(scope="session")
def posets_upto_7():
    """One poset per isomorphism class, at most 7 points (2451 classes)."""
    return list(enumerate_posets_upto(7))


@pytest.fixture(scope="session")
def invposets_upto_6():
    """One involutive poset per class, at most 6 points (124 classes)."""
    return list(enumerate_invposets_upto(6))


@pytest.fixture(scope="session")
def invposets_upto_8():
    """One involutive poset per class, at most 8 points (1055 classes)."""
    return list(enumerate_invposets_upto(8))
