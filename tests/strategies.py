"""Hypothesis strategies and fixed structures shared across the suite."""

from hypothesis import strategies as st

from morgan_unify import validate_involutive, validate_poset
from morgan_unify.involutive import involutions_of, make_invposet


def reversed_chain(k):
    """The k-chain c0 < ... < c(k-1) with the order-reversing involution."""
    names = [f"c{i}" for i in range(k)]
    base = validate_poset(names, list(zip(names, names[1:])))
    return validate_involutive(base, dict(zip(names, reversed(names))))


@st.composite
def posets(draw, max_size=5):
    """Random poset: orient random cover pairs along the element order,
    so antisymmetry holds by construction."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    elems = [f"e{i}" for i in range(n)]
    pairs = [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return validate_poset(elems, chosen, mode="covers")


@st.composite
def invposets(draw, max_size=4):
    base = draw(posets(max_size=max_size).filter(lambda p: len(p.elements) > 0))
    sigmas = list(involutions_of(base))
    if not sigmas:
        return make_invposet(validate_poset(["f"], []), {"f": "f"})
    return make_invposet(base, draw(st.sampled_from(sigmas)))
