"""Three-dimensional subgroup constructions and their generation checks.

For Sp4 and G2 a rank-1 subgroup A is embedded diagonally into a pair of
commuting root SL2s with a Frobenius twist q on the second factor:

    Sp4:  u+(x) = u_{a1}(x) u_{a1+2a2}(x^q),   companion root a1+a2
    G2:   u+(x) = u_{a1}(x) u_{3a1+2a2}(x^q),  companion root 3a1+a2

The candidate H is B_A plus the companion root group.  The checks: the
diagonal torus h(l) has the stated pairings, B_A normalizes the companion
root group (X centralizes it), the two A-isotypic subspaces are A-stable
but leak under the companion, and the group Y generated by A and the
companion acts absolutely irreducibly on the defining module (the
F_p-algebra generated by the x-slices of u+, u- and u_c is the full
matrix algebra).  Every check reads u+(x), u-(x) and u_c(x) as the
coefficient rows of ``DiagonalA1Spec.rows`` in the faithful module, built
once per spec.  That h scales the companion root group by its pairing
needs no check of its own: ``chevrep._base_data`` checks once that every
module's weights grade its root elements.  The algebra is spanned in
``exactalg.FpSpan``, the engine's one row reduction over F_p, which also
gives the witnesses their kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import chevrep
from .exactalg import FpSpan, PrimeField, is_ppower, rows_product
from .rootdata import GroupId, root_datum
from .subgrp import record


@dataclass(frozen=True)
class DiagonalA1Spec:
    group: GroupId  # SP4 or G2
    field: PrimeField
    q: int  # p-power twist, > 1

    def __post_init__(self):
        if self.group not in (GroupId.SP4, GroupId.G2):
            raise ValueError("diagonal construction exists for SP4 and G2 only")
        if self.q <= 1 or not is_ppower(self.q, self.field.p):
            raise ValueError("twist must be a p-power > 1")

    @property
    def pair(self) -> tuple[int, int]:
        """1-based indices of the two commuting roots (short, long)."""
        return (1, 4) if self.group is GroupId.SP4 else (1, 6)

    @property
    def companion(self) -> int:
        return 3 if self.group is GroupId.SP4 else 5

    def torus(self) -> tuple[int, int]:
        """h(l) = a1v(l) . beta_v(l^q) in simple-coroot coordinates."""
        datum = root_datum(self.group)
        i, j = self.pair
        n1, n2 = datum.coroot_coords(datum.positive_roots[i - 1])
        m1, m2 = datum.coroot_coords(datum.positive_roots[j - 1])
        return (n1 + self.q * m1, n2 + self.q * m2)

    # kept after first use; hash and equality read the fields only
    @cached_property
    def rows(self) -> tuple[list, list, list]:
        """The coefficient rows of u+(x), u-(x) and u_c(x) in the faithful
        module, kept for the spec's later checks."""
        rep = chevrep.faithful_rep(self.group, self.field)
        i, j = self.pair
        return (
            rep.u_rows([(i, 1, 1), (j, 1, self.q)]),
            rep.u_rows([(-i, 1, 1), (-j, 1, self.q)]),
            rep.u_rows([(self.companion, 1, 1)]),
        )


def _record(group, name, p, q, status, detail="") -> dict:
    return record(f"{group}/existence/{name}", status, detail, f"p={p},q={q}")


def check_h_torus(spec: DiagonalA1Spec) -> dict:
    """Pairings of the diagonal torus against the simple and companion roots.

    For Sp4 the stated values are a1(h) = l^2, a2(h) = l^{q-1} and
    companion weight q + 1; the G2 analogue gives a1(h) = l^2,
    a2(h) = l^{q-3} and companion weight q + 3 (positive for every q).
    """
    datum = root_datum(spec.group)
    t = spec.torus()
    got = tuple(
        datum.pairing(datum.weight_coords(datum.positive_roots[k]), t)
        for k in range(datum.num_positive)
    )
    a1_h = got[0]
    a2_h = got[1]
    comp = got[spec.companion - 1]
    q = spec.q
    if spec.group is GroupId.SP4:
        want = (2, q - 1, q + 1)
    else:
        want = (2, q - 3, q + 3)
    ok = (a1_h, a2_h, comp) == want and comp > 0
    detail = f"a1(h)={a1_h}, a2(h)={a2_h}, companion weight {comp}"
    return _record(
        spec.group, "h-torus", spec.field.p, q, "pass" if ok else "fail", detail
    )


def check_normalization(spec: DiagonalA1Spec) -> dict:
    """X centralizes the companion root group; h scales it by its pairing.

    The first is a matrix identity in the faithful module.  With
    u_c(y) = sum_k y^k M_k, u+(x) u_c(y) u+(x)^-1 = u_c(y) holds in
    F_p[x, y] exactly when u+(x) commutes with every slice M_k.  The
    second, h(l) u_c(y) h(l)^-1 = u_c(l^w y) with w the companion root's
    pairing with h, holds in every module whose weights grade its root
    elements, which ``chevrep._base_data`` checks once per module; the
    record gives w.
    """
    p = spec.field.p
    up, _, uc = spec.rows

    centralized = all(
        rows_product(up, m, p) == rows_product(m, up, p) for m in _slices(uc)
    )
    datum = root_datum(spec.group)
    w = datum.pairing(
        datum.weight_coords(datum.positive_roots[spec.companion - 1]), spec.torus()
    )
    detail = f"centralized={centralized}, torus scales by weight {w}"
    status = "pass" if centralized else "fail"
    return _record(spec.group, "normalization", p, spec.q, status, detail)


_SUMMANDS = {
    GroupId.SP4: ((0, 3), (1, 2)),
    GroupId.G2: ((0, 1, 5, 6), (2, 3, 4)),
}


def check_a_summands(spec: DiagonalA1Spec) -> dict:
    """The two A-isotypic subspaces are A-stable; the companion leaks out.

    Stability is symbolic in x for both u+ and u-; the leak check applies
    the companion root element to each subspace and requires a component
    outside it (so neither subspace is H-stable).
    """
    rep = chevrep.faithful_rep(spec.group, spec.field)
    up, um, uc = spec.rows
    spans = _SUMMANDS[spec.group]

    def leaks_out(m: list, span) -> bool:
        return any(m[r][c] for c in span for r in range(rep.dim) if r not in span)

    stable = not any(leaks_out(m, span) for span in spans for m in (up, um))
    leaks = [leaks_out(uc, span) for span in spans]
    ok = stable and all(leaks)
    detail = f"stable={stable}, leaks={leaks}"
    return _record(
        spec.group, "a-summands", spec.field.p, spec.q, "pass" if ok else "fail", detail
    )


# ---------------------------------------------------------------------------
# Generated matrix algebra over F_p
# ---------------------------------------------------------------------------


class _ExtSpan(FpSpan):
    # the Burnside span's own attribute, not an inherited one: perfbench's
    # tracer wraps it here to count the Burnside span's inserts, and the
    # witness kernels, which insert into a plain FpSpan, stay out of it
    insert = FpSpan.insert


def burnside_irreducible(generators, p: int) -> tuple[bool, int]:
    """Span the algebra generated by the matrices.

    The generators are constant coefficient rows (entries ``{0: v}`` or
    empty).  The span starts at the identity and is closed under right
    multiplication by one generator after another; a generator already in
    the span lies in the algebra of the earlier ones and is skipped.
    Returns (full matrix algebra reached, span dimension); the dimension
    of an F_p-algebra does not change under extension of scalars, so full
    span dimension n^2 certifies absolute irreducibility.
    """
    if not generators:
        return False, 0
    n = len(generators[0])
    full = n * n
    span = _ExtSpan(p)
    span.insert([int(r == c) for r in range(n) for c in range(n)])
    basis, used = [], []
    done = []  # basis[i] has been multiplied by used[:done[i]]

    def add(m) -> bool:
        if span.dim < full and span.insert([e.get(0, 0) for row in m for e in row]):
            basis.append(m)
            done.append(0)
            return True
        return False

    for g in generators:
        if not add(g):
            continue
        used.append(g)
        i = 0
        while i < len(basis) and span.dim < full:
            for h in used[done[i]:]:
                add(rows_product(basis[i], h, p))
            done[i] = len(used)
            i += 1
    return span.dim == full, span.dim


def _slices(rows: list) -> list:
    """The slices M_k, k >= 1, of u(x) = sum_k x^k M_k as constant rows."""
    degrees = sorted({k for row in rows for e in row for k in e if k})
    return [
        [[{0: e[k]} if k in e else {} for e in row] for row in rows] for k in degrees
    ]


def y_generators(spec: DiagonalA1Spec) -> list:
    """The slices of u+, u- and u_c: with M_0 = 1 and F_p-bar infinite,
    the span of {u(x) : x in F_p-bar} is the span of the slices of u
    (Vandermonde), so they generate the algebra of Y."""
    return [m for rows in spec.rows for m in _slices(rows)]


# The spans at G2, p = 2 that the reading of ``check_burnside`` predicts:
# on the lattice the algebra fixing the line L, 1 + 36 + 6 = 43 of 49, and
# on the quotient the full 36.
_G2_CHAR2_LATTICE_SPAN = 43
_G2_CHAR2_QUOTIENT_SPAN = (True, 36)


def check_burnside(spec: DiagonalA1Spec) -> list[dict]:
    """Irreducibility of Y = <A, companion> on the defining module.

    For G2 at p = 2 the 7-dim module has a Y-invariant line L through the
    weight-0 vector, with an irreducible 6-dim quotient.  Neither the
    lattice nor the quotient is asserted to be the module of the claim:
    the record is "discrepant" and gives both span dimensions.  Both are
    asserted to be what that reading predicts, the algebra fixing L (43 of
    49) and the full quotient algebra (36 of 36); any other value is a
    "fail" record.
    """
    p = spec.field.p
    rep = chevrep.faithful_rep(spec.group, spec.field)
    gens = y_generators(spec)
    full, dim = burnside_irreducible(gens, p)
    if spec.group is GroupId.G2 and p == 2:
        quotient = _g2_char2_quotient_span(gens, rep)
        detail = (
            f"ambiguous module at p=2: span {dim} of {rep.dim**2} on the "
            f"7-dim lattice, {_quotient_text(quotient)} on the 6-dim quotient; "
        )
        if (dim, quotient) == (_G2_CHAR2_LATTICE_SPAN, _G2_CHAR2_QUOTIENT_SPAN):
            status = "discrepant"
            detail += "recorded without asserting"
        else:
            status = "fail"
            detail += "expected 43 of 49 and 36 of 36 (full)"
    else:
        status = "pass" if full else "fail"
        detail = f"span dimension {dim} of {rep.dim**2}"
    return [_record(spec.group, "burnside", p, spec.q, status, detail)]


def _g2_char2_quotient_span(gens: list, rep) -> tuple[bool, int] | None:
    """``burnside_irreducible`` on the 6-dim quotient by the weight-0 line,
    or None when that line is not Y-invariant."""
    zero_idx = rep.weights.index((0, 0))
    for g in gens:
        for r in range(rep.dim):
            if r != zero_idx and g[r][zero_idx]:
                return None
    keep = [i for i in range(rep.dim) if i != zero_idx]
    qgens = [
        tuple(tuple(g[r][c] for c in keep) for r in keep) for g in gens
    ]
    return burnside_irreducible(qgens, rep.field.p)


def _quotient_text(quotient: tuple[bool, int] | None) -> str:
    if quotient is None:
        return "weight-0 vector is not Y-invariant; quotient undefined"
    full, dim = quotient
    return f"span {dim} of 36" + (" (full)" if full else "")


def existence_records(primes) -> list[dict]:
    """All existence checks at q = p for each configured prime."""
    records = []
    for group in (GroupId.SP4, GroupId.G2):
        for p in sorted(primes):
            spec = DiagonalA1Spec(group, PrimeField(p), p)
            records.append(check_h_torus(spec))
            records.append(check_normalization(spec))
            records.append(check_a_summands(spec))
            records.extend(check_burnside(spec))
    return records
