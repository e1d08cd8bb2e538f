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
from typing import TYPE_CHECKING

from .exactalg import PrimeField

if TYPE_CHECKING:  # circular at runtime: subgrp imports rootdata
    from .subgrp import Formula, USpec


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


def conjugate_by_word(spec: "USpec", word: tuple[int, ...]) -> "USpec | None":
    """Conjugate a spec by the representative of a Weyl word.

    Returns None when the image support leaves the positive roots.
    Evaluates ``weyl_formula``, derived at the matrix level, so reordering
    corrections and signs come straight from the validated representation
    action; letters act rightmost-first.
    """
    if not word:
        return spec
    from . import subgrp

    try:
        return subgrp.formula_image(weyl_formula(spec.group, word), spec)
    except subgrp.NotOneParameter as exc:
        raise AssertionError("Weyl conjugate is not a one-parameter spec") from exc


@lru_cache(maxsize=None)
def weyl_formula(group: GroupId, word: tuple[int, ...]) -> "Formula":
    """n_w u(x) n_w^-1 with u(x) symbolic on the roots w keeps positive.

    n_w = n_{k1} n_{k2} ... for the word (k1, k2, ...), with
    n_k = u_k(1) u_{-k}(-1) u_k(1); the matrices of n_w and n_w^-1 come
    from ``weyl_representatives``, shared with every longer word.  Derived
    once per process, on first use.
    """
    from . import subgrp

    datum = root_datum(group)
    roots = tuple(
        i
        for i, r in enumerate(datum.positive_roots, start=1)
        if datum.apply_word_to_root(word, r) in datum.positive_roots
    )

    def build(rep, param):
        n_w, n_w_inv = weyl_representatives(group, word)
        u = subgrp.product_in(rep, [rep.u(i, param(i, "X")) for i in roots])
        return n_w * u * n_w_inv

    return subgrp.Formula(roots, subgrp.derive_coords(group, build, "X"))


@lru_cache(maxsize=None)
def weyl_representatives(group: GroupId, word: tuple[int, ...]):
    """(n_w, n_w^-1) in the faithful module over Z, where the derivations
    run.

    The empty word gives the identity twice.  A one-letter word k gives
    n_k = u_k(1) u_{-k}(-1) u_k(1) and n_k^-1 = u_k(-1) u_{-k}(1) u_k(-1).
    A longer word w = w'k gives n_w = n_{w'} n_k and n_w^-1 = n_k^-1
    n_{w'}^-1, one product each from the cached pairs of w' and k.
    """
    from . import chevrep, subgrp

    if len(word) > 1:
        head, head_inv = weyl_representatives(group, word[:-1])
        last, last_inv = weyl_representatives(group, word[-1:])
        return head * last, last_inv * head_inv
    rep = chevrep.faithful_rep(group, PrimeField(0))
    factors = [(k, s) for k in word for s in (1, -1, 1)]
    return (
        subgrp.product_in(rep, [rep.u(k * s, s) for k, s in factors]),
        subgrp.product_in(rep, [rep.u(k * s, -s) for k, s in factors]),
    )
