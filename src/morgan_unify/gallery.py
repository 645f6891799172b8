"""Small named instances used by the test suite, goldens, and docs.

The pattern instances close the nullarity configurations under the
involution (mirror elements are written ~v); each classifies as nullary
in its variety with the certificate family it illustrates.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra, validate_algebra
from .involutive import InvPoset, mirror_closure, validate_involutive
from .order import Poset, validate_poset


def crown_poset() -> Poset:
    """Shortest non-lattice interval: x below a,b below c,d below y."""
    return validate_poset(
        ["x", "a", "b", "c", "d", "y"],
        [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ],
    )


def free_demorgan_one() -> FiniteAlgebra:
    """The one-generated free De Morgan algebra: 0 < m < x, x' < j < 1."""
    carrier = validate_poset(
        ["0", "m", "x", "xp", "j", "1"],
        [("0", "m"), ("m", "x"), ("m", "xp"), ("x", "j"), ("xp", "j"), ("j", "1")],
    )
    return validate_algebra(
        carrier, {"0": "1", "1": "0", "x": "xp", "xp": "x", "m": "j", "j": "m"}
    )


def k1_pattern_instance() -> InvPoset:
    """Kleene instance realizing the meet-failure pattern: a, b below the
    incomparable c, d which reach fixed points y, z."""
    swapped = ["x", "a", "b", "c", "d"]
    lower = [
        ("x", "a"), ("x", "b"),
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "y"), ("d", "z"),
    ]
    covers, inv = mirror_closure(lower, ["y", "z"], swapped)
    elems = ["x", "a", "b", "c", "d", "y", "z", "~d", "~c", "~b", "~a", "~x"]
    return validate_involutive(validate_poset(elems, covers), inv)


def k2_pattern_instance() -> InvPoset:
    """Kleene instance realizing the triple-supremum failure: pairwise
    bounds d, e, f with fixed points, no self-below bound for a, b, c."""
    swapped = ["x", "a", "b", "c", "d", "e", "f"]
    lower = [
        ("x", "a"), ("x", "b"), ("x", "c"),
        ("a", "d"), ("a", "e"), ("b", "d"), ("b", "f"), ("c", "e"), ("c", "f"),
        ("d", "y"), ("e", "z"), ("f", "w"),
    ]
    covers, inv = mirror_closure(lower, ["y", "z", "w"], swapped)
    elems = [
        "x", "a", "b", "c", "d", "e", "f", "y", "z", "w",
        "~f", "~e", "~d", "~c", "~b", "~a", "~x",
    ]
    return validate_involutive(validate_poset(elems, covers), inv)


def m1_pattern_instance() -> InvPoset:
    """De Morgan instance whose interval [x, ~x] is not a lattice; the
    fixed point y certifies solvability from x."""
    swapped = ["x", "a", "b", "c", "d"]
    lower = [
        ("x", "a"), ("x", "b"),
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("x", "y"),
        ("c", "~x"), ("d", "~x"),
    ]
    covers, inv = mirror_closure(lower, ["y"], swapped)
    elems = ["x", "a", "b", "c", "d", "y", "~d", "~c", "~b", "~a", "~x"]
    return validate_involutive(validate_poset(elems, covers), inv)


def m2_pattern_instance() -> InvPoset:
    """De Morgan instance with a self-below point a admitting no fixed
    point above it, next to the fixed point b."""
    swapped = ["x", "a"]
    lower = [("x", "a"), ("x", "b"), ("a", "~a")]
    covers, inv = mirror_closure(lower, ["b"], swapped)
    elems = ["x", "a", "~a", "b", "~x"]
    return validate_involutive(validate_poset(elems, covers), inv)


def m3_pattern_instance() -> InvPoset:
    """The k2 configuration viewed as a De Morgan instance."""
    return k2_pattern_instance()
