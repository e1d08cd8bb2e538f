"""The lemma enumeration without the choice of z or the shared right sides.

``lemmas.check_poly_lemma`` tries each item only at the z where its right
side can solve: the degree of the homogeneous right side in cases 1-4,
and the z that pass ``lemmas.admissible_z`` in cases 5 and 6, whose
per-z items are built only at those z.  Each item is one right side with
its parameter tuples, solved once per z; case 6's cancelling tuples
share one item, the zero polynomial, read in one pass.  This module
keeps the loop that those choices replaced: every family at every z in
range, and every parameter tuple with its own right side (the cancelling
ones as written, {(q4, q1): c1 + c2}, which vanishes mod p), each solved
by ``expansion_units``.  The conclusion and the stated tuples are the
engine's own, so a difference can come only from the enumeration.  The
tests and ``tests/sweep_lemmas.py`` compare the two.  It is a helper, not
a test module: pytest does not collect it.
"""

from __future__ import annotations

from rank2chev.lemmas import _POLY_CASES, _ppowers, expansion_units


# the right-side terms (i, j, w) of the cases 2-4, w times c1 a^{i q1} b^{j q1}
_SHAPES = {
    2: [(1, 2, 1), (2, 1, 1)],
    3: [(1, 3, 2), (2, 2, 3), (3, 1, 2)],
    4: [(1, 4, 1), (2, 3, 2), (3, 2, 2), (4, 1, 1)],
}


def families(case: int, p: int, z_max: int):
    """(z values, items) of the case, every z in 1..z_max where the right
    sides do not depend on z, and one family per z where they do."""
    pp, units, every_z = _ppowers(p, z_max), range(1, p), range(1, z_max + 1)
    if case == 1:
        for q1 in pp:
            for q2 in pp:
                yield every_z, [((c1, q1, q2), {(q2, q1): c1}) for c1 in units]
    elif case in _SHAPES:
        for q1 in pp:
            yield every_z, [
                ((c1, q1), {(i * q1, j * q1): c1 * w for i, j, w in _SHAPES[case]})
                for c1 in units
            ]
    elif case == 5:
        for q1 in pp:
            for z in range(2 * q1, z_max + 1):
                q3, q4 = z - 2 * q1, z - q1
                yield (z,), [
                    ((c1, c2, q1, q3, q4), {(q3, 2 * q1): c1, (q4, q1): c2})
                    for c1 in units
                    for c2 in units
                ]
    else:

        def rhs(c1, c2, q1, q2, q4, q5):
            out = {(q4, q1): c1}
            out[(q5, q2)] = out.get((q5, q2), 0) + c2
            return out

        for q1 in pp:
            for q4 in range(z_max + 1):
                for c1 in units:
                    t = (c1, -c1 % p, q1, q1, q4, q4)
                    yield pp, [(t, rhs(*t))]
        for q1 in pp:
            for q2 in pp:
                for z in range(max(q1, q2), z_max + 1):
                    params = [
                        (c1, c2, q1, q2, z - q1, z - q2)
                        for c1 in units
                        for c2 in units
                        if q1 != q2 or (c1 + c2) % p
                    ]
                    yield (z,), [(t, rhs(*t)) for t in params]


def check(case: int, p: int, z_max: int) -> tuple[int, set, set]:
    """(solutions, extra, missing) of the case at p, the extra and missing
    tuples as sets."""
    _, conclusion, stated = _POLY_CASES[case](p, z_max)
    solutions, extra = 0, set()
    for zs, items in families(case, p, z_max):
        for z in zs:
            for params, rhs in items:
                for c in expansion_units(z, rhs, p):
                    solutions += 1
                    if not conclusion((z, c) + params):
                        extra.add((z, c) + params)
    missing = {tup for tup, z, c, rhs in stated if c not in expansion_units(z, rhs, p)}
    return solutions, extra, missing
