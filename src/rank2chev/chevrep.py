"""Concrete representations with root-element matrices over PolyFp.

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

from .exactalg import PolyFp, PolyMatrix, PrimeField
from .rootdata import GroupId, RootDatum, root_datum


class UnknownModule(KeyError):
    pass


class ValidationFailure(AssertionError):
    pass


class DimensionOverflow(OverflowError):
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


def _wedge2_indices(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


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
    m4 = f_{a1+2a2} m1, m5 = f_1 m4, where f-action on the wedge square is
    by derivations.  The integer span is stable under all root elements;
    stability is asserted here once at the integer level.
    """
    v2 = _base_data(GroupId.SP4, "V2")
    n = 4
    pairs = _wedge2_indices(n)
    pair_index = {p: i for i, p in enumerate(pairs)}

    def derivation(m: dict) -> dict:
        """Action of a Lie algebra element on wedge2, from its action on V2."""
        out: dict = {}
        for (r, c), v in m.items():
            for (i, j), col in pair_index.items():
                # contribution when c is one of (i, j): replace it by r
                for pos_in_pair, other in ((0, j), (1, i)):
                    src = i if pos_in_pair == 0 else j
                    if src != c:
                        continue
                    a, b = (r, other) if pos_in_pair == 0 else (other, r)
                    if a == b:
                        continue
                    sign = 1
                    if a > b:
                        a, b = b, a
                        sign = -1
                    row = pair_index[(a, b)]
                    out[(row, col)] = out.get((row, col), 0) + sign * v
        return {k: v for k, v in out.items() if v}

    def lie_elem(data: dict, idx: int, k: int = 1) -> dict:
        for kk, m in data[idx]:
            if kk == k:
                return m
        return {}

    f1 = derivation(lie_elem(v2.neg, 1))
    f3 = derivation(lie_elem(v2.neg, 3))
    f4 = derivation(lie_elem(v2.neg, 4))

    def apply(m: dict, vec: dict) -> dict:
        out: dict = {}
        for (r, c), v in m.items():
            if c in vec:
                out[r] = out.get(r, 0) + v * vec[c]
        return {k: v for k, v in out.items() if v}

    hw = {pair_index[(0, 1)]: 1}  # v21 ^ v22
    basis_vecs = [hw, apply(f1, hw), apply(f3, hw), apply(f4, hw)]
    basis_vecs.append(apply(f1, basis_vecs[3]))

    # coordinates of a wedge vector in the V1 basis; None if outside the span
    span_rows = [[vec.get(i, 0) for i in range(6)] for vec in basis_vecs]

    def in_span(vec: dict) -> list[int] | None:
        target = [vec.get(i, 0) for i in range(6)]
        # integer Gaussian elimination against span_rows (rows are unimodular)
        coeffs = [0] * 5
        work = target[:]
        rows = [r[:] for r in span_rows]
        for bi in range(5):
            lead = next(i for i, x in enumerate(rows[bi]) if x)
            pivot = rows[bi][lead]
            if work[lead] % pivot:
                return None
            c = work[lead] // pivot
            coeffs[bi] = c
            work = [w - c * r for w, r in zip(work, rows[bi])]
        return coeffs if not any(work) else None

    weights = ((1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0))

    # Build the full u_i(x) on wedge2 symbolically over Z by collecting
    # x-slices of (u a) ^ (u b), then restrict each slice to the span.
    def restrict_full(data: dict, idx: int) -> list[tuple[int, dict]]:
        slices: dict[int, dict] = {}
        povers = {k: m for k, m in data[idx]}
        for col, (i, j) in enumerate(pairs):
            # u(x) v_i = v_i + sum_k x^k (M_k v_i)
            legs_i = {0: {i: 1}}
            legs_j = {0: {j: 1}}
            for k, m in povers.items():
                im = apply(m, {i: 1})
                if im:
                    legs_i[k] = im
                im = apply(m, {j: 1})
                if im:
                    legs_j[k] = im
            for ka, va in legs_i.items():
                for kb, vb in legs_j.items():
                    k = ka + kb
                    if k == 0:
                        continue
                    acc = slices.setdefault(k, {})
                    for a, ca in va.items():
                        for b, cb in vb.items():
                            if a == b:
                                continue
                            (x, y), sign = ((a, b), 1) if a < b else ((b, a), -1)
                            row = pair_index[(x, y)]
                            acc[(row, col)] = acc.get((row, col), 0) + sign * ca * cb
        out = []
        for k in sorted(slices):
            m = {key: v for key, v in slices[k].items() if v}
            if not m:
                continue
            restricted_m: dict = {}
            for vcol in range(5):
                img = apply(m, dict(enumerate(span_rows[vcol])))
                coeffs = in_span(img)
                if coeffs is None:
                    raise ValidationFailure(
                        f"V1 span not stable under root {idx} slice {k}"
                    )
                for r, c in enumerate(coeffs):
                    if c:
                        restricted_m[(r, vcol)] = c
            out.append((k, restricted_m))
        return out

    pos = {i: restrict_full(v2.pos, i) for i in v2.pos}
    neg = {i: restrict_full(v2.neg, i) for i in v2.neg}
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
        if isinstance(param, int):
            param = PolyFp.const(self.field, param)
        m = PolyMatrix.identity(self.field, self.dim)
        powers: dict[int, PolyFp] = {}
        for k, mat in self.divided_powers(root):
            if k not in powers:
                powers[k] = param**k
            pk = powers[k]
            for (r, c), v in mat.items():
                m.entries[r][c] = m.entries[r][c] + pk * v
        return m

    def probe(self, root: int) -> tuple[int, int, int]:
        """A unit entry (row, col, +-1) of the x-linear part of a root element."""
        lin = dict(self.divided_powers(root))[1]
        for (r, c), v in sorted(lin.items()):
            if v in (1, -1):
                return r, c, v
        raise ValueError(f"no unit probe entry for root {root} in {self.name}")

    def weight(self, i: int) -> tuple[int, int]:
        return self.weights[i]

    def __repr__(self) -> str:
        return f"Representation({self.group}, {self.name}, F{self.field.p})"


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
    """
    field = rep.field
    checks = []
    s = PolyFp.var(field, "a")
    t = PolyFp.var(field, "b")
    roots = list(range(1, rep.datum.num_positive + 1))
    signed = roots + [-r for r in roots]
    for r in signed:
        lhs = rep.u(r, s) * rep.u(r, t)
        rhs = rep.u(r, s + t)
        checks.append((f"additivity root {r}", lhs == rhs))
    for r in signed:
        vec = rep.datum.positive_roots[abs(r) - 1]
        alpha = rep.datum.weight_coords(vec)
        if r < 0:
            alpha = (-alpha[0], -alpha[1])
        good = True
        for k, mat in rep.divided_powers(r):
            for (row, col), v in mat.items():
                if v % field.p == 0:
                    continue
                wr, wc = rep.weight(row), rep.weight(col)
                if (wr[0] - wc[0], wr[1] - wc[1]) != (k * alpha[0], k * alpha[1]):
                    good = False
        checks.append((f"weight grading root {r}", good))
    x = PolyFp.var(field, "x")
    for r in signed:
        checks.append((f"det=1 root {r}", rep.u(r, x).det() == 1))
    if rep.group is GroupId.SP4 and rep.name == "V1":
        # span stability is asserted during integer-level construction; the
        # successful build is the record here
        checks.append(("V1 span stable in wedge2(V2)", True))
    return ValidationReport(
        rep=f"{rep.group}/{rep.name}", p=field.p, checks=checks,
        ok=all(okc for _, okc in checks),
    )


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
        return expr.rep.weight(label)
    if isinstance(expr, Tensor):
        ws = [expr_weight(c, l) for c, l in zip(expr.children, label)]
        return (sum(w[0] for w in ws), sum(w[1] for w in ws))
    ws = [expr_weight(expr.child, l) for l in label]
    return (sum(w[0] for w in ws), sum(w[1] for w in ws))


def act_on_vector(expr, leaf_matrices, vec: dict) -> dict:
    """Apply a group element to a composite-module vector.

    ``leaf_matrices`` maps leaf module names to the element's matrix there
    (a bare PolyMatrix is accepted when only one leaf module occurs).
    ``vec`` maps structured labels to PolyFp (or int) coefficients.  Large
    symmetric/tensor powers are handled without building their matrices.
    """
    field = expr_field(expr)
    if isinstance(leaf_matrices, PolyMatrix):
        names = leaf_names(expr)
        if len(names) != 1:
            raise ValueError("expression has multiple leaf modules; pass a dict")
        leaf_matrices = {names.pop(): leaf_matrices}

    def coerce(c):
        return c if isinstance(c, PolyFp) else PolyFp.const(field, c)

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
            out = {(): PolyFp.const(field, 1)}
            for c, l in zip(node.children, label):
                img = act_label(c, l)
                nxt = {}
                for t, ct in out.items():
                    for b, cb in img.items():
                        nl = t + (b,)
                        prev = nxt.get(nl)
                        term = ct * cb
                        nxt[nl] = prev + term if prev is not None else term
                out = nxt
        elif isinstance(node, Ext):
            imgs = [act_label(node.child, l) for l in label]
            out = {}
            order = {l: i for i, l in enumerate(expr_basis(node.child))}

            def expand(i, chosen, coeff):
                if i == len(imgs):
                    idx = [order[l] for l in chosen]
                    if len(set(idx)) != len(idx):
                        return
                    perm = sorted(range(len(idx)), key=lambda t: idx[t])
                    sign = _perm_sign(perm)
                    lbl = tuple(chosen[t] for t in perm)
                    term = coeff if sign > 0 else -coeff
                    prev = out.get(lbl)
                    out[lbl] = prev + term if prev is not None else term
                    return
                for b, cb in imgs[i].items():
                    expand(i + 1, chosen + [b], coeff * cb)

            expand(0, [], PolyFp.const(field, 1))
            out = {l: c for l, c in out.items() if c.terms}
        else:  # Sym
            imgs = [act_label(node.child, l) for l in label]
            out = {(): PolyFp.const(field, 1)}
            order = {l: i for i, l in enumerate(expr_basis(node.child))}
            for img in imgs:
                nxt = {}
                for t, ct in out.items():
                    for b, cb in img.items():
                        lbl = tuple(sorted(t + (b,), key=lambda l: order[l]))
                        term = ct * cb
                        prev = nxt.get(lbl)
                        nxt[lbl] = prev + term if prev is not None else term
                out = nxt
            out = {l: c for l, c in out.items() if c.terms}
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


class FunctorRep:
    """Representation-like wrapper for composite modules with real matrices."""

    def __init__(self, expr, dim_cap: int = 20000):
        d = expr_dim(expr)
        if d > dim_cap:
            raise DimensionOverflow(f"composite dimension {d} exceeds cap {dim_cap}")
        self.expr = expr
        self.field = expr_field(expr)
        self.labels = expr_basis(expr)
        self.index = {l: i for i, l in enumerate(self.labels)}
        self.weights = tuple(expr_weight(expr, l) for l in self.labels)
        leaf_rep = _first_leaf(expr).rep
        self.group = leaf_rep.group
        self.datum = leaf_rep.datum
        self.basis = tuple(str(l) for l in self.labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def transform(self, leaf_matrices) -> PolyMatrix:
        """Matrix of a group element on the composite module."""
        zero = PolyFp.zero(self.field)
        cols = []
        for label in self.labels:
            img = act_on_vector(self.expr, leaf_matrices, {label: 1})
            col = [zero] * self.dim
            for l, c in img.items():
                col[self.index[l]] = c
            cols.append(col)
        return PolyMatrix(self.field, [list(r) for r in zip(*cols)])

    def u(self, root: int, param) -> PolyMatrix:
        mats = {
            name: build_rep(self.group, name, self.field).u(root, param)
            for name in leaf_names(self.expr)
        }
        return self.transform(mats)

    def weight(self, i: int) -> tuple[int, int]:
        return self.weights[i]


def apply_functor(expr, dim_cap: int = 20000) -> FunctorRep:
    """Realize a module expression as a representation with matrices."""
    return FunctorRep(expr, dim_cap)
