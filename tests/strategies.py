"""Hypothesis strategies and fixed structures shared across the suite."""

from hypothesis import strategies as st

from morgan_unify import validate_involutive, validate_poset
from morgan_unify.involutive import make_invposet

from reference import involutions_of


def chain(k):
    names = [f"c{i}" for i in range(k)]
    return validate_poset(names, list(zip(names, names[1:])))


def grid(a, b):
    """The product of an a-chain and a b-chain."""
    names = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(a - 1) for j in range(b)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(a) for j in range(b - 1)]
    return validate_poset(names, covers)


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


_names = st.sampled_from("abcde")
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)

#: any JSON value, kept small
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


#: text heavy in what JSON escapes: quotes, backslashes, control
#: characters, and non-ASCII text, which is written as is
_escapable_text = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f \u00e9\u2028\u20ac\U0001f600') | st.characters(),
    max_size=5,
)
_plain_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _escapable_text

#: JSON-like trees: dicts with str, int, float, bool and None keys, lists
#: and tuples, empty and nested
json_trees = st.recursive(
    _plain_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(
        _escapable_text | st.integers() | st.floats() | st.booleans() | st.none(),
        inner,
        max_size=4,
    ),
    max_leaves=20,
)


@st.composite
def near_documents(draw):
    """A structure document on at most five points in which each field is
    mostly well formed and otherwise an arbitrary JSON value: a known
    kind, distinct elements, a chain or random pairs oriented along the
    element order as covers or le, an involution pairing some elements,
    and a negation map."""

    def field(good):
        return draw(json_values) if draw(st.integers(0, 4)) == 0 else good

    elements = draw(st.lists(_names, max_size=5, unique=True))
    if draw(st.booleans()):
        pairs = [list(p) for p in zip(elements, elements[1:])]  # a chain
    else:
        pairs = [
            [elements[i], elements[j]]
            for i, j in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6))
            if i < j < len(elements)
        ]
    order = draw(st.permutations(elements))
    swaps = draw(st.integers(0, len(order) // 2))
    inv = {x: x for x in order}
    for x, y in zip(order[: 2 * swaps : 2], order[1 : 2 * swaps : 2]):
        inv[x], inv[y] = y, x
    doc = {
        "kind": field(draw(st.sampled_from(["poset", "invposet", "algebra"]))),
        "elements": field(elements),
        draw(st.sampled_from(["covers", "le"])): field(pairs),
    }
    for key in ("inv", "neg"):
        if draw(st.booleans()):
            doc[key] = field(inv)
    return doc
