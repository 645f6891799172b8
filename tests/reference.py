"""Reference implementations the suite compares the library against.

`ordered_brute_force` is the exhaustive oracle for every map search in
the library: it lists all maps in the order the library's search yields
them.  The Boolean-cube embedding and its retraction oracle serve the
bdl half of the projectivity agreement check.
"""

import itertools

from morgan_unify import PreconditionError, SizeGuardError, ValidationError
from morgan_unify.order import MonotoneMap, Poset, make_monotone_map, search_maps


def ordered_brute_force(dom: Poset, cod: Poset, build, keep=None) -> list:
    """All maps dom -> cod whose morphism passes its own check().

    Maps are listed by values along `dom.linear_extension()`, each value
    in `cod.elements` order.  `build` turns a dict into the morphism;
    `keep`, when given, adds the caller's own constraints.
    """
    order = dom.linear_extension()
    out = []
    for values in itertools.product(cod.elements, repeat=len(order)):
        m = build(dict(zip(order, values)))
        try:
            m.check()
        except ValidationError:
            continue
        if keep is None or keep(m):
            out.append(m)
    return out


def cube_embedding(p: Poset) -> tuple[int, MonotoneMap]:
    """Order-reflecting embedding of a poset into the Boolean cube 2^n,
    one coordinate per principal downset (the bdl analog of the DIAMOND
    embedding)."""
    if not p.elements:
        raise PreconditionError("cannot embed the empty poset")
    n = len(p.elements)
    cube = _boolean_cube(n)
    vectors = {
        x: "".join("0" if p.leq(x, q) else "1" for q in p.elements)
        for x in p.elements
    }
    f = make_monotone_map(p, cube, vectors)
    f.check()
    for x in p.elements:
        for y in p.elements:
            if cube.leq(vectors[x], vectors[y]) and not p.leq(x, y):
                raise ValidationError(f"cube embedding not order-reflecting at ({x!r}, {y!r})")
    return n, f


def _boolean_cube(n: int) -> Poset:
    elems = []
    for k in range(1 << n):
        elems.append("".join("1" if k >> (n - 1 - i) & 1 else "0" for i in range(n)))
    elems.sort(key=lambda s: (s.count("1"), s))
    le = frozenset(
        (a, b)
        for a in elems
        for b in elems
        if all(ca <= cb for ca, cb in zip(a, b))
    )
    return Poset(tuple(elems), le)


def oracle_poset_retraction(p: Poset, embedding: tuple[int, MonotoneMap]) -> MonotoneMap | None:
    """Brute-force monotone retraction of the Boolean cube onto p's image."""
    n, e = embedding
    if n > 4:
        raise SizeGuardError(f"oracle guard: cube dimension {n} exceeds 4")
    cube = e.cod
    forced = {e(x): (x,) for x in p.elements}
    f = next(search_maps(cube, p, forced), None)
    return None if f is None else make_monotone_map(cube, p, f)
