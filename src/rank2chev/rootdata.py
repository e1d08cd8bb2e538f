"""Rank-2 root systems for SL3, Sp4 and G2.

Labeling convention (matches the table and basis data shipped in data/):
for SP4 the simple root a1 is long (a1 + 2*a2 is a positive root), for G2
the simple root a1 is short (3*a1 + a2 is a positive root).  The positive
roots are stored in the fixed listing order used for all normal forms:

    SL3:  a1, a2, a1+a2
    SP4:  a1, a2, a1+a2, a1+2a2
    G2:   a1, a2, a1+a2, 2a1+a2, 3a1+a2, 3a1+2a2

Roots are integer vectors in the simple-root basis; weights are integer
vectors in the fundamental-weight basis, so pairing a weight with the
cocharacter m1*a1v + m2*a2v is just the dot product with (m1, m2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # circular at runtime: chevrep/subgrp import rootdata
    from .exactalg import PolyMatrix, PrimeField
    from .subgrp import USpec


class GroupId(Enum):
    SL3 = "SL3"
    SP4 = "SP4"
    G2 = "G2"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RootDatum:
    group: GroupId
    # positive roots in the simple-root basis, in the frozen listing order
    positive_roots: tuple[tuple[int, int], ...]
    # cartan[i][j] = <alpha_{j+1}, alpha_{i+1}^vee>
    cartan: tuple[tuple[int, int], tuple[int, int]]
    # halved squared lengths (d1, d2) of the simple roots
    lengths: tuple[int, int]

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def coroot_coords(self, root: tuple[int, int]) -> tuple[int, int]:
        """Coordinates of root^vee in the simple-coroot basis."""
        a, b = root
        d1, d2 = self.lengths
        inner_12 = d1 * self.cartan[0][1]  # (alpha1, alpha2)
        half_norm = a * a * d1 + b * b * d2 + a * b * inner_12
        n1, n2 = a * d1, b * d2
        if n1 % half_norm or n2 % half_norm:
            raise ValueError(f"{root} is not a root")
        return (n1 // half_norm, n2 // half_norm)

    def coroot_pairing(self, root: tuple[int, int], i: int) -> int:
        """<root, alpha_i^vee> for i in {1, 2}, root in simple-root basis."""
        a, b = root
        return a * self.cartan[i - 1][0] + b * self.cartan[i - 1][1]

    def weight_coords(self, root: tuple[int, int]) -> tuple[int, int]:
        """A root rewritten in fundamental-weight coordinates."""
        return (self.coroot_pairing(root, 1), self.coroot_pairing(root, 2))

    def pairing(self, weight: tuple[int, int], cochar: tuple[int, int]) -> int:
        """<weight, m1*a1v + m2*a2v> for a weight in fundamental-weight coords."""
        return weight[0] * cochar[0] + weight[1] * cochar[1]

    def simple_reflection_on_root(self, k: int, root: tuple[int, int]) -> tuple[int, int]:
        """s_{alpha_k}(root) in the simple-root basis, k in {1, 2}."""
        c = self.coroot_pairing(root, k)
        out = list(root)
        out[k - 1] -= c
        return (out[0], out[1])

    def all_roots(self) -> tuple[tuple[int, int], ...]:
        return self.positive_roots + tuple(
            (-a, -b) for a, b in self.positive_roots
        )

    @lru_cache(maxsize=None)
    def weyl_words(self) -> tuple[tuple[int, ...], ...]:
        """One reduced word per Weyl group element, BFS order (identity first).

        Elements are distinguished by their action on the simple roots.
        Computed once per datum.
        """
        seen = {}
        start = ((1, 0), (0, 1))
        queue = [((), start)]
        seen[start] = ()
        while queue:
            word, images = queue.pop(0)
            for k in (1, 2):
                new = tuple(self.simple_reflection_on_root(k, im) for im in images)
                if new not in seen:
                    nw = word + (k,)
                    seen[new] = nw
                    queue.append((nw, new))
        return tuple(sorted(seen.values(), key=lambda w: (len(w), w)))

    def apply_word_to_root(self, word: tuple[int, ...], root: tuple[int, int]) -> tuple[int, int]:
        """Apply a Weyl word (rightmost letter first, as function composition)."""
        for k in reversed(word):
            root = self.simple_reflection_on_root(k, root)
        return root


_DATA = {
    GroupId.SL3: RootDatum(
        GroupId.SL3,
        positive_roots=((1, 0), (0, 1), (1, 1)),
        cartan=((2, -1), (-1, 2)),
        lengths=(1, 1),
    ),
    GroupId.SP4: RootDatum(
        GroupId.SP4,
        positive_roots=((1, 0), (0, 1), (1, 1), (1, 2)),
        cartan=((2, -1), (-2, 2)),
        lengths=(2, 1),
    ),
    GroupId.G2: RootDatum(
        GroupId.G2,
        positive_roots=((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        cartan=((2, -3), (-1, 2)),
        lengths=(1, 3),
    ),
}


def root_datum(group: GroupId) -> RootDatum:
    return _DATA[group]


def regenerate_positive_roots(datum: RootDatum) -> tuple[tuple[int, int], ...]:
    """Close the simple roots under root strings using only the Cartan data.

    Independent reconstruction used to validate the frozen listing: a vector
    v + alpha_k is a root iff the alpha_k-string through v, read off from the
    pairing, extends that far.
    """
    roots = {(1, 0), (0, 1)}
    changed = True
    while changed:
        changed = False
        for v in sorted(roots):
            for k in (1, 2):
                # string through v in direction alpha_k: v - r*a_k ... v + q*a_k
                # with r - q = <v, alpha_k^vee>
                r = 0
                back = (v[0] - (1 if k == 1 else 0), v[1] - (1 if k == 2 else 0))
                while back in roots:
                    r += 1
                    back = (
                        back[0] - (1 if k == 1 else 0),
                        back[1] - (1 if k == 2 else 0),
                    )
                q = r - datum.coroot_pairing(v, k)
                step = v
                for _ in range(q):
                    step = (
                        step[0] + (1 if k == 1 else 0),
                        step[1] + (1 if k == 2 else 0),
                    )
                    if step not in roots and step != (0, 0):
                        roots.add(step)
                        changed = True
    return tuple(sorted(roots, key=lambda v: (v[0] + v[1], v)))


def conjugate_by_word(
    spec: "USpec",
    word: tuple[int, ...],
    invert: bool = False,
    u_spec: "Callable[[], PolyMatrix] | None" = None,
) -> "USpec | None":
    """Conjugate a spec by the representative of a Weyl word.

    Returns None when the image support leaves the positive roots.
    Computed at the matrix level (n_w u(x) n_w^-1 re-factorized into
    normal form), so reordering corrections and signs come straight from
    the validated representation action; letters act rightmost-first.
    With ``invert`` the inverse representative is used, which undoes the
    plain conjugation exactly (reversed-word representatives only undo it
    up to a torus element, since n_k^2 lies in the torus).  ``u_spec``,
    if given, returns u(x) of ``spec`` in the faithful module: a caller
    that conjugates one spec by many words passes a cached one, so that
    u(x) is built once.
    """
    from . import chevrep, subgrp

    datum = root_datum(spec.group)
    # fast filter: the permuted support must stay positive
    image_word = word if not invert else tuple(reversed(word))
    for i in range(datum.num_positive):
        if spec.coeffs[i] == 0:
            continue
        img = datum.apply_word_to_root(image_word, datum.positive_roots[i])
        if img not in datum.positive_roots:
            return None
    if not word:
        return spec
    field = spec.field
    rep = chevrep.faithful_rep(spec.group, field)
    n_w, n_w_inv = weyl_representatives(spec.group, field, word)
    if invert:
        n_w, n_w_inv = n_w_inv, n_w
    u = subgrp.u_matrix(spec, rep) if u_spec is None else u_spec()
    conj = n_w * u * n_w_inv
    try:
        coords = subgrp.normal_form_factorize(conj, rep)
    except subgrp.NotUnipotent:
        return None
    image = subgrp.spec_from_coords(spec.group, field, coords)
    if image is None:
        raise AssertionError("Weyl conjugate is not a one-parameter spec")
    return image


@lru_cache(maxsize=None)
def weyl_representatives(
    group: GroupId, field: "PrimeField", word: tuple[int, ...]
) -> tuple["PolyMatrix", "PolyMatrix"]:
    """(n_w, n_w^-1) in the faithful module, n_w = n_{k1} n_{k2} ... for a
    nonempty word (k1, k2, ...), with n_k = u_k(1) u_{-k}(-1) u_k(1).

    Cached per (group, field, word) and shared by every caller: the
    matrices must never be written to.
    """
    from . import chevrep

    rep = chevrep.faithful_rep(group, field)
    n_w = None
    n_w_inv = None
    for k in word:
        nk = rep.u(k, 1) * rep.u(-k, -1) * rep.u(k, 1)
        nk_inv = rep.u(k, -1) * rep.u(-k, 1) * rep.u(k, -1)
        n_w = nk if n_w is None else n_w * nk
        n_w_inv = nk_inv if n_w_inv is None else nk_inv * n_w_inv
    return n_w, n_w_inv
