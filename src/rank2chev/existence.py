"""Three-dimensional subgroup constructions and their generation checks.

For Sp4 and G2 a rank-1 subgroup A is embedded diagonally into a pair of
commuting root SL2s with a Frobenius twist q on the second factor:

    Sp4:  u+(x) = u_{a1}(x) u_{a1+2a2}(x^q),   companion root a1+a2
    G2:   u+(x) = u_{a1}(x) u_{3a1+2a2}(x^q),  companion root 3a1+a2

The candidate H is B_A plus the companion root group.  The checks: the
diagonal torus h(l) has the stated pairings, B_A normalizes the companion
root group (X centralizes it), the two A-isotypic subspaces are A-stable
but leak under the companion, and the group Y generated by A and the
companion acts absolutely irreducibly on the defining module (the algebra
it spans over GF(p^2) is the full matrix algebra).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chevrep
from .exactalg import PolyFp, PolyMatrix, PrimeField, is_ppower
from .rootdata import GroupId, root_datum


class IdentityFails(AssertionError):
    pass


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

    def u_plus(self, rep, var: str = "x") -> PolyMatrix:
        i, j = self.pair
        x = PolyFp.var(self.field, var)
        return rep.u(i, x) * rep.u(j, x**self.q)

    def u_minus(self, rep, var: str = "x") -> PolyMatrix:
        i, j = self.pair
        x = PolyFp.var(self.field, var)
        return rep.u(-i, x) * rep.u(-j, x**self.q)


def _record(group, name, p, q, status, detail="") -> dict:
    return {
        "case": f"{group}/existence/{name}",
        "instantiation": f"p={p},q={q}",
        "status": status,
        "detail": detail,
    }


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

    Both statements are matrix identities in the faithful module: the
    first symbolically in x and y, the second as weight bookkeeping on
    every graded slice (equivalent to h(l) u_c(y) h(l)^-1 = u_c(l^w y)).
    """
    rep = chevrep.faithful_rep(spec.group, spec.field)
    field = spec.field
    y = PolyFp.var(field, "y")
    uc = rep.u(spec.companion, y)
    up = spec.u_plus(rep)
    i, j = spec.pair
    x = PolyFp.var(field, "x")
    up_inv = rep.u(j, -(x**spec.q)) * rep.u(i, -x)
    centralized = up * uc * up_inv == uc
    datum = rep.datum
    t = spec.torus()
    w = datum.pairing(
        datum.weight_coords(datum.positive_roots[spec.companion - 1]), t
    )
    graded_ok = True
    for k, mat in rep.divided_powers(spec.companion):
        for (r, c), v in mat.items():
            if v % field.p == 0:
                continue
            wr, wc = rep.weight(r), rep.weight(c)
            lam = (wr[0] - wc[0]) * t[0] + (wr[1] - wc[1]) * t[1]
            if lam != k * w:
                graded_ok = False
    ok = centralized and graded_ok
    detail = f"centralized={centralized}, torus scales by weight {w}"
    if not ok:
        raise IdentityFails(f"{spec.group} normalization: {detail}")
    return _record(spec.group, "normalization", field.p, spec.q, "pass", detail)


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
    spans = _SUMMANDS[spec.group]
    mats = [spec.u_plus(rep), spec.u_minus(rep)]
    stable = True
    for span in spans:
        inside = set(span)
        for m in mats:
            for c in span:
                for r in range(rep.dim):
                    if r not in inside and m.entries[r][c].terms:
                        stable = False
    y = PolyFp.var(spec.field, "y")
    uc = rep.u(spec.companion, y)
    leaks = []
    for span in spans:
        inside = set(span)
        leak = any(
            uc.entries[r][c].terms
            for c in span
            for r in range(rep.dim)
            if r not in inside
        )
        leaks.append(leak)
    ok = stable and all(leaks)
    detail = f"stable={stable}, leaks={leaks}"
    return _record(
        spec.group, "a-summands", spec.field.p, spec.q, "pass" if ok else "fail", detail
    )


# ---------------------------------------------------------------------------
# Generated matrix algebra over GF(p^2)
# ---------------------------------------------------------------------------


class ExtField:
    """Minimal GF(p^k), k <= 3, with elements as coefficient tuples (lowest first)."""

    def __init__(self, p: int, k: int):
        if not 1 <= k <= 3:
            raise ValueError(f"extension degree {k} outside 1..3")
        self.p = p
        self.k = k
        self.modulus = self._find_irreducible(p, k)

    @staticmethod
    def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
        """The first monic degree-k polynomial with no root in F_p.

        For k <= 3 a polynomial without roots has no linear factor and so
        is irreducible.
        """
        if k == 1:
            return (0, 1)
        for tail in range(p**k):
            cs = [(tail // p**i) % p for i in range(k)] + [1]
            if all(
                sum(c * pow(x, i, p) for i, c in enumerate(cs)) % p
                for x in range(p)
            ):
                return tuple(cs)
        raise RuntimeError("no irreducible polynomial found")

    @property
    def order(self) -> int:
        return self.p**self.k

    def embed(self, n: int) -> tuple[int, ...]:
        return (n % self.p,) + (0,) * (self.k - 1)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.k

    def one(self) -> tuple[int, ...]:
        return self.embed(1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        k, p = self.k, self.p
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, mc in enumerate(self.modulus[:-1]):
                    prod[i - k + j] = (prod[i - k + j] - c * mc) % p
        return tuple(prod[:k])

    def pow(self, a, n: int):
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, a):
        if a == self.zero():
            raise ZeroDivisionError
        return self.pow(a, self.order - 2)


def _ext_matrix_of_root(rep, root: int, ext: ExtField, value) -> tuple:
    """The root element at a GF(p^k) parameter as a tuple-matrix."""
    n = rep.dim
    rows = [[ext.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = ext.one()
    powers = {0: ext.one()}
    for k, mat in rep.divided_powers(root):
        if k not in powers:
            powers[k] = ext.pow(value, k)
        vk = powers[k]
        for (r, c), v in mat.items():
            term = ext.mul(ext.embed(v % ext.p), vk)
            rows[r][c] = ext.add(rows[r][c], term)
    return tuple(tuple(r) for r in rows)


def _ext_mat_mul(a, b, ext: ExtField) -> tuple:
    n = len(a)
    zero = ext.zero()
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = zero
            for k in range(n):
                if a[r][k] != zero and b[k][c] != zero:
                    acc = ext.add(acc, ext.mul(a[r][k], b[k][c]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class _ExtSpan:
    """Row space over GF(p^k) with incremental insertion."""

    def __init__(self, ext: ExtField, width: int):
        self.ext = ext
        self.width = width
        self.pivots: dict[int, list] = {}

    def insert(self, vec: list) -> bool:
        ext = self.ext
        v = list(vec)
        for col in sorted(self.pivots):
            if v[col] != ext.zero():
                f = v[col]
                prow = self.pivots[col]
                v = [ext.add(x, ext.neg(ext.mul(f, y))) for x, y in zip(v, prow)]
        lead = next((j for j, x in enumerate(v) if x != ext.zero()), None)
        if lead is None:
            return False
        inv = ext.inv(v[lead])
        v = [ext.mul(x, inv) for x in v]
        for col, prow in list(self.pivots.items()):
            if prow[lead] != ext.zero():
                f = prow[lead]
                self.pivots[col] = [
                    ext.add(x, ext.neg(ext.mul(f, y))) for x, y in zip(prow, v)
                ]
        self.pivots[lead] = v
        return True

    @property
    def dim(self) -> int:
        return len(self.pivots)


def burnside_irreducible(generators, ext: ExtField) -> tuple[bool, int]:
    """Span the algebra generated by the matrices until stable.

    Returns (full matrix algebra reached, span dimension); full span
    dimension n^2 certifies absolute irreducibility.  The criterion is
    monotone in the generator set and the field extension, so a True over
    GF(p^k) is final.
    """
    if not generators:
        return False, 0
    n = len(generators[0])
    span = _ExtSpan(ext, n * n)
    basis: list = []

    def insert_matrix(m) -> bool:
        flat = [m[r][c] for r in range(n) for c in range(n)]
        if span.insert(flat):
            basis.append(m)
            return True
        return False

    ident = tuple(
        tuple(ext.one() if r == c else ext.zero() for c in range(n))
        for r in range(n)
    )
    insert_matrix(ident)
    frontier = []
    for g in generators:
        if insert_matrix(g):
            frontier.append(g)
    while frontier and span.dim < n * n:
        new_frontier = []
        for b in frontier:
            for g in generators:
                prod = _ext_mat_mul(b, g, ext)
                if insert_matrix(prod):
                    new_frontier.append(prod)
        frontier = new_frontier
    return span.dim == n * n, span.dim


def y_generators(spec: DiagonalA1Spec, rep, ext: ExtField) -> list:
    """u+-, u- and companion elements at a basis of GF(p^2) over F_p."""
    basis_elems = []
    one = ext.one()
    gen = [0] * ext.k
    if ext.k > 1:
        gen[1] = 1
    basis_elems = [one, tuple(gen)] if ext.k > 1 else [one]
    i, j = spec.pair
    out = []
    for xi in basis_elems:
        xi_q = ext.pow(xi, spec.q)
        up = _ext_mat_mul(
            _ext_matrix_of_root(rep, i, ext, xi),
            _ext_matrix_of_root(rep, j, ext, xi_q),
            ext,
        )
        um = _ext_mat_mul(
            _ext_matrix_of_root(rep, -i, ext, xi),
            _ext_matrix_of_root(rep, -j, ext, xi_q),
            ext,
        )
        uc = _ext_matrix_of_root(rep, spec.companion, ext, xi)
        out.extend([up, um, uc])
    return out


def check_burnside(spec: DiagonalA1Spec) -> list[dict]:
    """Irreducibility of Y = <A, companion> on the defining module.

    For G2 at p = 2 the 7-dim module has a Y-invariant line through the
    weight-0 vector; the span dimensions of both the 7-dim module and its
    6-dim quotient are reported without asserting either reading.
    """
    p = spec.field.p
    rep = chevrep.faithful_rep(spec.group, spec.field)
    ext = ExtField(p, 2)
    gens = y_generators(spec, rep, ext)
    full, dim = burnside_irreducible(gens, ext)
    records = []
    if spec.group is GroupId.G2 and p == 2:
        quotient_dims = _g2_char2_quotient_dim(spec, rep, ext)
        records.append(
            _record(
                spec.group,
                "burnside",
                p,
                spec.q,
                "discrepant",
                f"ambiguous module at p=2: span {dim} of {rep.dim**2} on the "
                f"7-dim lattice, {quotient_dims} on the 6-dim quotient; "
                f"recorded without asserting",
            )
        )
        return records
    n2 = rep.dim**2
    records.append(
        _record(
            spec.group,
            "burnside",
            p,
            spec.q,
            "pass" if full else "fail",
            f"span dimension {dim} of {n2}",
        )
    )
    return records


def _g2_char2_quotient_dim(spec, rep, ext: ExtField) -> str:
    """Span dimension on the 6-dim quotient by the invariant weight-0 line."""
    gens = y_generators(spec, rep, ext)
    zero_idx = rep.weights.index((0, 0))
    for g in gens:
        for r in range(rep.dim):
            if r != zero_idx and g[r][zero_idx] != ext.zero():
                return "weight-0 vector is not Y-invariant; quotient undefined"
    keep = [i for i in range(rep.dim) if i != zero_idx]
    qgens = [
        tuple(tuple(g[r][c] for c in keep) for r in keep) for g in gens
    ]
    full, dim = burnside_irreducible(qgens, ext)
    return f"span {dim} of {len(keep)**2}" + (" (full)" if full else "")


def existence_records(primes=(2, 3, 5)) -> list[dict]:
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
