"""Concrete representations with root elements as PolyFp matrices and as
coefficient rows.

Modules provided:
  SL3 "natural"  : 3-dim natural module (basis e1, e2, e3)
  SP4 "V2"       : 4-dim natural symplectic module (basis v21..v24)
  SP4 "V1"       : 5-dim module of f-monomial vectors inside wedge2(V2)
  G2  "V"        : 7-dim module (basis v1..v7) with hardcoded matrices

All matrix data is stored at the integer level (divided powers e^(k)/k!),
so characteristics 2 and 3 work without division; reduction mod p happens
when a Representation is bound to a field.  Negative-root matrices are the
contravariant transposes e -> D^-1 e^T D for a diagonal D fixed by the
sl2 relations; the SP4 basis signs are pinned so the derived additivity
system reproduces the reference system for that group byte for byte.

Functors Tensor, Sym(a), Ext(k) act on composite bases; vectors in
composite modules are dicts keyed by structured labels, and root elements
act on them leafwise without materializing large matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .exactalg import (
    EXPONENT_BOUND,
    ExponentOverflow,
    PolyFp,
    PolyMatrix,
    PrimeField,
    nullspace,
    rows_additive,
    rows_product,
)
from .rootdata import GroupId, RootDatum, root_datum


class UnknownModule(KeyError):
    pass


class ValidationFailure(AssertionError):
    pass


# ---------------------------------------------------------------------------
# Integer-level matrix data
# ---------------------------------------------------------------------------

# x-linear parts of the positive root elements, as {(row, col): int}, 0-indexed.

_SL3_E = {
    1: {(0, 1): 1},
    2: {(1, 2): 1},
    3: {(0, 2): 1},
}
_SL3_WEIGHTS = ((1, 0), (-1, 1), (0, -1))
_SL3_D = (1, 1, 1)

# Signs chosen so that collecting u(a)u(b) yields the reference system for
# Sp4: the commutator relations are
#   u2(y) u1(x) = u1(x) u2(y) u3(-xy) u4(-x y^2)
#   u3(z) u2(y) = u2(y) u3(z) u4(2yz)
_SP4_E = {
    1: {(1, 2): -1},
    2: {(0, 1): 1, (2, 3): 1},
    3: {(0, 2): 1, (1, 3): -1},
    4: {(0, 3): 1},
}
_SP4_V2_WEIGHTS = ((0, 1), (1, -1), (-1, 1), (0, -1))
_SP4_D = (1, 1, 1, 1)

_G2_E = {
    1: {(0, 1): 1, (2, 3): 2, (3, 4): 1, (5, 6): 1},
    2: {(1, 2): -1, (4, 5): 1},
    3: {(0, 2): 1, (1, 3): -2, (3, 5): -1, (4, 6): 1},
    4: {(0, 3): 2, (1, 4): -1, (2, 5): 1, (3, 6): -1},
    5: {(0, 4): 1, (2, 6): 1},
    6: {(0, 5): 1, (1, 6): 1},
}
_G2_WEIGHTS = ((1, 0), (-1, 1), (2, -1), (0, 0), (-2, 1), (1, -1), (-1, 0))
# Contravariant-form diagonal fixed by [e_a, f_a] = h_a for all six roots.
_G2_D = (1, 1, 1, 2, 1, 1, 1)


def _mat_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    by_row: dict = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    for (r, c), v in a.items():
        for c2, v2 in by_row.get(c, ()):
            out[(r, c2)] = out.get((r, c2), 0) + v * v2
    return {k: v for k, v in out.items() if v}


def _divided_powers(e: dict) -> list[tuple[int, dict]]:
    """[(k, e^k / k!)] for k >= 1, until the power vanishes; must be integral."""
    out = [(1, dict(e))]
    power = dict(e)
    k = 1
    while True:
        k += 1
        power = _mat_mul(power, e)
        if not power:
            break
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        divided = {}
        for key, v in power.items():
            if v % fact:
                raise ValueError(f"divided power e^{k}/{k}! is not integral at {key}")
            divided[key] = v // fact
        out.append((k, divided))
    return out


def _contravariant_transpose(e: dict, d: tuple[int, ...]) -> dict:
    """f = D^-1 e^T D; entries must stay integral."""
    out = {}
    for (r, c), v in e.items():
        num = v * d[r]
        if num % d[c]:
            raise ValueError("contravariant transpose not integral")
        out[(c, r)] = num // d[c]
    return out


@dataclass(frozen=True)
class BaseRepData:
    group: GroupId
    name: str
    basis: tuple[str, ...]
    weights: tuple[tuple[int, int], ...]
    pos: dict  # root index (1-based) -> [(k, {(r,c): int})]
    neg: dict


def _build_base(group: GroupId, e_data: dict, weights, d, basis) -> BaseRepData:
    pos = {i: _divided_powers(e) for i, e in e_data.items()}
    neg = {
        i: _divided_powers(_contravariant_transpose(e, d))
        for i, e in e_data.items()
    }
    return BaseRepData(group, basis_name(group), basis, weights, pos, neg)


def basis_name(group: GroupId) -> str:
    return {GroupId.SL3: "natural", GroupId.SP4: "V2", GroupId.G2: "V"}[group]


@lru_cache(maxsize=None)
def _base_data(group: GroupId, module: str) -> BaseRepData:
    if group is GroupId.SL3 and module == "natural":
        return _build_base(
            group, _SL3_E, _SL3_WEIGHTS, _SL3_D, ("e1", "e2", "e3")
        )
    if group is GroupId.SP4 and module == "V2":
        return _build_base(
            group, _SP4_E, _SP4_V2_WEIGHTS, _SP4_D, ("v21", "v22", "v23", "v24")
        )
    if group is GroupId.G2 and module == "V":
        return _build_base(
            group,
            _G2_E,
            _G2_WEIGHTS,
            _G2_D,
            ("v1", "v2", "v3", "v4", "v5", "v6", "v7"),
        )
    if group is GroupId.SP4 and module == "V1":
        return _sp4_v1_data()
    raise UnknownModule(f"no module {module!r} for {group}")


def _sp4_v1_data() -> BaseRepData:
    """The 5-dim module as the span of f-monomial vectors inside wedge2(V2).

    Basis: m1 = v21^v22, m2 = f_1 m1, m3 = f_{a1+a2} m1,
    m4 = f_{a1+2a2} m1, m5 = f_1 m4, where f_a is the x-linear slice of
    u_{-a}(x) on the wedge square.  The integer span is stable under all
    root elements; stability is asserted here once at the integer level.
    """
    v2 = _base_data(GroupId.SP4, "V2")
    pairs = list(combinations(range(4), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    order = {i: i for i in range(4)}

    def column(m: dict, c: int) -> dict:
        return {r: v for (r, cc), v in m.items() if cc == c}

    def apply(m: dict, vec: dict) -> dict:
        out: dict = {}
        for (r, c), v in m.items():
            if c in vec:
                out[r] = out.get(r, 0) + v * vec[c]
        return {k: v for k, v in out.items() if v}

    def slices(data: dict, idx: int) -> dict[int, dict]:
        """{k: x^k slice} of u_idx(x) on wedge2(V2), from its slices on V2:
        u(x) (v_i ^ v_j) = (u(x) v_i) ^ (u(x) v_j), collected by x-degree."""
        powers = [(0, {(i, i): 1 for i in range(4)})] + data[idx]
        out: dict[int, dict] = {}
        for col, (i, j) in enumerate(pairs):
            for ka, ma in powers:
                for kb, mb in powers:
                    if ka + kb == 0:
                        continue
                    legs = [column(ma, i), column(mb, j)]
                    acc = out.setdefault(ka + kb, {})
                    for lbl, v in wedge_legs(legs, order).items():
                        key = (pair_index[lbl], col)
                        acc[key] = acc.get(key, 0) + v
        return {
            k: nz
            for k, m in sorted(out.items())
            if (nz := {key: v for key, v in m.items() if v})
        }

    f1, f3, f4 = (slices(v2.neg, i)[1] for i in (1, 3, 4))
    hw = {pair_index[(0, 1)]: 1}  # v21 ^ v22
    basis_vecs = [hw, apply(f1, hw), apply(f3, hw), apply(f4, hw)]
    basis_vecs.append(apply(f1, basis_vecs[3]))

    def in_span(vec: dict) -> list[int] | None:
        """Integer coordinates of a wedge vector in the V1 basis, or None.

        The basis vectors are independent, so the relations among them and
        -vec are at most one primitive vector, positive at vec's column;
        the coordinates are integral exactly when that entry is 1.
        """
        rows = [
            [b.get(i, 0) for b in basis_vecs] + [-vec.get(i, 0)] for i in range(6)
        ]
        rel = nullspace(rows, 6)
        return rel[0][:5] if len(rel) == 1 and rel[0][5] == 1 else None

    weights = ((1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0))

    def restrict(data: dict, idx: int) -> list[tuple[int, dict]]:
        out = []
        for k, m in slices(data, idx).items():
            restricted_m: dict = {}
            for vcol in range(5):
                coeffs = in_span(apply(m, basis_vecs[vcol]))
                if coeffs is None:
                    raise ValidationFailure(
                        f"V1 span not stable under root {idx} slice {k}"
                    )
                for r, c in enumerate(coeffs):
                    if c:
                        restricted_m[(r, vcol)] = c
            out.append((k, restricted_m))
        return out

    pos = {i: restrict(v2.pos, i) for i in v2.pos}
    neg = {i: restrict(v2.neg, i) for i in v2.neg}
    return BaseRepData(
        GroupId.SP4, "V1", ("v11", "v12", "v13", "v14", "v15"), weights, pos, neg
    )


# ---------------------------------------------------------------------------
# Field-bound representations
# ---------------------------------------------------------------------------


class Representation:
    """A named module over F_p with root-element matrices in one parameter."""

    def __init__(self, data: BaseRepData, field: PrimeField):
        self.group = data.group
        self.name = data.name
        self.field = field
        self.basis = data.basis
        self.weights = data.weights
        self._pos = data.pos
        self._neg = data.neg
        self.datum: RootDatum = root_datum(data.group)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def divided_powers(self, root: int) -> list[tuple[int, dict]]:
        """Integer-level [(k, matrix)] for a signed root index."""
        if root > 0:
            return self._pos[root]
        return self._neg[-root]

    def u(self, root: int, param) -> PolyMatrix:
        """The root element at a polynomial (or integer) parameter value."""
        field = self.field
        p = field.p
        if isinstance(param, int):
            param = PolyFp.const(field, param)
        m = PolyMatrix.identity(field, self.dim)
        entries = m.entries
        for k, mat in self.divided_powers(root):
            pk = param**k
            if not pk.terms:
                continue
            for (r, c), v in mat.items():
                v %= p
                if not v:
                    continue
                # v is a unit, so the scaled copy of param^k is canonical
                scaled = PolyFp(
                    field, pk.vars, {e: a * v % p for e, a in pk.terms.items()}
                )
                # the M_k lie off the diagonal with disjoint supports, so the
                # entry is still zero unless the data break that pattern
                old = entries[r][c]
                entries[r][c] = old + scaled if old.terms else scaled
        return m

    def root_rows(self, root: int, c: int, q: int) -> list[list[dict[int, int]]]:
        """The coefficient rows of u_root(c x^q), c reduced mod p.

        Read off the divided powers, u_root(c x^q) = 1 + sum_k c^k x^{kq} M_k;
        every x^{kq} is held to EXPONENT_BOUND.
        """
        p = self.field.p
        n = self.dim
        rows = [[{0: 1} if r == s else {} for s in range(n)] for r in range(n)]
        if not c:
            return rows
        for k, mat in self.divided_powers(root):
            e = k * q
            if e > EXPONENT_BOUND:
                raise ExponentOverflow(f"exponent {e} exceeds bound {EXPONENT_BOUND}")
            ck = pow(c, k, p)
            for (r, s), v in mat.items():
                v = ck * v % p
                if v:
                    rows[r][s][e] = v
        return rows

    def root_monomials(self, root: int) -> tuple[int, tuple]:
        """u_root(c x^q) = 1 + sum c^k v x^{kq} E_rs over the (r, s, k, v)
        this returns, v the divided-power entries reduced mod p, zeros
        dropped; with the largest k of the divided powers, vanishing mod p
        or not, to which ``root_rows`` holds k q.  Built on first use and
        kept per (group, module, p, root)."""
        return _root_monomials(self.group, self.name, self.field.p, root)

    def probe(self, root: int) -> tuple[int, int, int]:
        """A unit entry (row, col, +-1) of the x-linear part of a root element."""
        lin = dict(self.divided_powers(root))[1]
        for (r, c), v in sorted(lin.items()):
            if v in (1, -1):
                return r, c, v
        raise ValueError(f"no unit probe entry for root {root} in {self.name}")

    def slice_shifts(self, root: int):
        """(k, weight(r) - weight(c)) for every entry (r, c) of the x^k slice
        of u_root(x) that is nonzero mod p."""
        p = self.field.p
        w = self.weights
        for k, mat in self.divided_powers(root):
            for (r, c), v in mat.items():
                if v % p:
                    yield k, (w[r][0] - w[c][0], w[r][1] - w[c][1])

    def __repr__(self) -> str:
        return f"Representation({self.group}, {self.name}, F{self.field.p})"


@lru_cache(maxsize=None)
def _root_monomials(group: GroupId, module: str, p: int, root: int) -> tuple[int, tuple]:
    data = _base_data(group, module)
    powers = data.pos[root] if root > 0 else data.neg[-root]
    monomials = tuple(
        (r, s, k, v % p) for k, mat in powers for (r, s), v in mat.items() if v % p
    )
    return max(k for k, _ in powers), monomials


def build_rep(group: GroupId, module: str, field: PrimeField) -> Representation:
    """Construct one of the four supported modules over F_p."""
    return Representation(_base_data(group, module), field)


def faithful_rep(group: GroupId, field: PrimeField) -> Representation:
    return build_rep(group, basis_name(group), field)


def all_modules(group: GroupId) -> tuple[str, ...]:
    return {
        GroupId.SL3: ("natural",),
        GroupId.SP4: ("V2", "V1"),
        GroupId.G2: ("V",),
    }[group]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    rep: str
    p: int
    checks: list
    ok: bool

    def failures(self):
        return [c for c in self.checks if not c[1]]


def validate_rep(rep: Representation) -> ValidationReport:
    """Check per-root additivity, torus-weight grading, unipotence.

    Additivity: u_a(s) u_a(t) = u_a(s + t) as a polynomial identity.
    Grading: the x^k slice of u_a(x) moves weights by exactly k*a, which is
    equivalent to the torus conjugation rule t u_a(x) t^-1 = u_a(a(t) x).
    Unipotence: (u_a(x) - 1)^dim = 0 over F_p[x].
    """
    p = rep.field.p
    checks = []
    roots = list(range(1, rep.datum.num_positive + 1))
    signed = roots + [-r for r in roots]
    rows = {r: rep.root_rows(r, 1, 1) for r in signed}
    for r in signed:
        checks.append((f"additivity root {r}", rows_additive(rows[r], p)))
    for r in signed:
        a1, a2 = rep.datum.weight_coords(rep.datum.positive_roots[abs(r) - 1])
        if r < 0:
            a1, a2 = -a1, -a2
        good = all(d == (k * a1, k * a2) for k, d in rep.slice_shifts(r))
        checks.append((f"weight grading root {r}", good))
    for r in signed:
        checks.append((f"unipotent root {r}", _unipotent(rows[r], p)))
    if rep.group is GroupId.SP4 and rep.name == "V1":
        # span stability is asserted during integer-level construction; the
        # successful build is the record here
        checks.append(("V1 span stable in wedge2(V2)", True))
    return ValidationReport(
        rep=f"{rep.group}/{rep.name}", p=p, checks=checks,
        ok=all(okc for _, okc in checks),
    )


def _unipotent(rows: list, p: int) -> bool:
    """Whether (u(x) - 1)^n = 0 for n x n coefficient rows with u(0) = 1,
    as ``Representation.root_rows`` builds them."""
    nil = [[{e: c for e, c in x.items() if e} for x in row] for row in rows]
    power = nil
    for _ in rows[1:]:
        power = rows_product(power, nil, p)
    return not any(map(any, power))


def cocharacter_weights(rep: Representation, t) -> tuple[int, ...]:
    """Exponent of the torus parameter on each basis vector under t."""
    m1, m2 = t.m1, t.m2
    return tuple(w[0] * m1 + w[1] * m2 for w in rep.weights)


# ---------------------------------------------------------------------------
# Functors: Tensor, Sym(a), Ext(k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    rep: Representation

    def __repr__(self):
        return self.rep.name


@dataclass(frozen=True)
class Tensor:
    children: tuple

    def __repr__(self):
        return "(" + " @ ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True)
class Sym:
    power: int
    child: object

    def __repr__(self):
        return f"S^{self.power}({self.child!r})"


@dataclass(frozen=True)
class Ext:
    power: int
    child: object

    def __repr__(self):
        return f"wedge^{self.power}({self.child!r})"


def _first_leaf(expr) -> Leaf:
    while not isinstance(expr, Leaf):
        expr = expr.children[0] if isinstance(expr, Tensor) else expr.child
    return expr


def expr_field(expr) -> PrimeField:
    return _first_leaf(expr).rep.field


def leaf_names(expr) -> set[str]:
    """Names of the base modules at the leaves of a module expression."""
    if isinstance(expr, Leaf):
        return {expr.rep.name}
    if isinstance(expr, Tensor):
        return set().union(*map(leaf_names, expr.children))
    return leaf_names(expr.child)


def expr_dim(expr) -> int:
    if isinstance(expr, Leaf):
        return expr.rep.dim
    if isinstance(expr, Tensor):
        d = 1
        for c in expr.children:
            d *= expr_dim(c)
        return d
    n = expr_dim(expr.child)
    a = expr.power
    if isinstance(expr, Sym):
        num, den = 1, 1
        for i in range(a):
            num *= n + i
            den *= i + 1
        return num // den
    out = 1
    for i in range(a):
        out = out * (n - i) // (i + 1)
    return out


def expr_basis(expr) -> list:
    """Structured labels for the composite basis, deterministic order."""
    if isinstance(expr, Leaf):
        return list(range(expr.rep.dim))
    if isinstance(expr, Tensor):
        out = [()]
        for c in expr.children:
            out = [t + (lbl,) for t in out for lbl in expr_basis(c)]
        return out
    child = expr_basis(expr.child)
    if isinstance(expr, Sym):
        def multisets(prefix, start, k):
            if k == 0:
                yield tuple(prefix)
                return
            for i in range(start, len(child)):
                yield from multisets(prefix + [child[i]], i, k - 1)
        return list(multisets([], 0, expr.power))
    return [tuple(c) for c in combinations(child, expr.power)]


def expr_weight(expr, label) -> tuple[int, int]:
    if isinstance(expr, Leaf):
        return expr.rep.weights[label]
    if isinstance(expr, Tensor):
        ws = [expr_weight(c, l) for c, l in zip(expr.children, label)]
        return (sum(w[0] for w in ws), sum(w[1] for w in ws))
    ws = [expr_weight(expr.child, l) for l in label]
    return (sum(w[0] for w in ws), sum(w[1] for w in ws))


def act_on_vector(expr, leaf_matrices, vec: dict) -> dict:
    """Apply a group element to a composite-module vector.

    ``leaf_matrices`` maps leaf module names to the element's matrix there.
    ``vec`` maps structured labels to PolyFp (or int) coefficients.  Large
    symmetric/tensor powers are handled without building their matrices.
    """
    field = expr_field(expr)

    def coerce(c):
        return c if isinstance(c, PolyFp) else PolyFp.const(field, c)

    def nonzero(vec: dict) -> dict:
        return {l: pc for l, c in vec.items() if (pc := coerce(c)).terms}

    cache: dict = {}

    def act_label(node, label) -> dict:
        key = (id(node), label)
        if key in cache:
            return cache[key]
        if isinstance(node, Leaf):
            out = {}
            mat = leaf_matrices[node.rep.name]
            for r in range(node.rep.dim):
                e = mat.entries[r][label]
                if e.terms:
                    out[r] = e
        elif isinstance(node, Tensor):
            legs = [act_label(c, l) for c, l in zip(node.children, label)]
            out = nonzero(tensor_legs(legs))
        else:
            legs = [act_label(node.child, l) for l in label]
            order = basis_order(node.child)
            kernel = wedge_legs if isinstance(node, Ext) else sym_legs
            out = nonzero(kernel(legs, order))
        cache[key] = out
        return out

    result: dict = {}
    for label, coeff in vec.items():
        coeff = coerce(coeff)
        if not coeff.terms:
            continue
        for l2, c2 in act_label(expr, label).items():
            term = coeff * c2
            prev = result.get(l2)
            total = prev + term if prev is not None else term
            if total.terms:
                result[l2] = total
            elif prev is not None:
                del result[l2]
    return result


def basis_order(expr) -> dict:
    """Position of each label in the composite basis of a module expression."""
    return {l: i for i, l in enumerate(expr_basis(expr))}


# The functor kernel.  Each leg maps child labels to coefficients (ints or
# PolyFp); ``order`` is the child's basis_order.  Tensor labels are tuples;
# wedge labels are sorted by child-basis position and signed by the sort, a
# repeated label giving nothing; sym labels are multisets sorted by position,
# collected leg by leg so that no full tensor power is expanded.  The kernels
# neither reduce nor drop zeros; a product of no legs is the int 1.


def tensor_legs(legs) -> dict:
    """The tensor product of the legs, keyed by label tuples."""
    out: dict = {(): 1}
    for leg in legs:
        out = {t + (l,): ct * c for t, ct in out.items() for l, c in leg.items()}
    return out


def wedge_legs(legs, order: dict) -> dict:
    """The wedge product of the legs, keyed by position-sorted label tuples."""
    out: dict = {}
    for chosen, coeff in tensor_legs(legs).items():
        pos = [order[l] for l in chosen]
        if len(set(pos)) != len(pos):
            continue
        perm = sorted(range(len(pos)), key=pos.__getitem__)
        label = tuple(chosen[t] for t in perm)
        term = coeff if _perm_sign(perm) > 0 else -coeff
        out[label] = out[label] + term if label in out else term
    return out


def sym_legs(legs, order: dict) -> dict:
    """The symmetric product of the legs, keyed by position-sorted multisets."""
    out: dict = {(): 1}
    for leg in legs:
        nxt: dict = {}
        for t, ct in out.items():
            for l, c in leg.items():
                label = tuple(sorted(t + (l,), key=order.__getitem__))
                term = ct * c
                nxt[label] = nxt[label] + term if label in nxt else term
        out = nxt
    return out


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
