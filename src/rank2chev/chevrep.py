"""Concrete representations with root elements as PolyFp matrices and as
coefficient rows.

Modules provided, each stated in the one table ``_MODULES``:
  SL3 "natural"  : 3-dim natural module (basis e1, e2, e3)
  SP4 "V2"       : 4-dim natural symplectic module (basis v21..v24)
  SP4 "V1"       : 5-dim module (basis v11..v15), the span of f-monomial
                   vectors inside wedge2(V2), stated in that basis
  G2  "V"        : 7-dim module (basis v1..v7)

Each module is given by the x-linear parts of its positive root elements
as integer matrices; the divided powers e^(k)/k! are built from them and
must be integral, so characteristics 2 and 3 work without division.
When a module is first built, ``_base_data`` checks over Z that its
weights grade every divided power of every signed root, and raises
``GradingViolated`` otherwise.
Bound to PrimeField(0), the prime ring Z, the root elements are the
integer matrices themselves: the derivations of ``subgrp`` run there.
Bound to F_p, ``Representation.u_rows`` builds every u(x), a product of
root elements, as coefficient rows from ``_root_monomials``, the one
table of divided-power entries mod p.  Negative-root matrices are the
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

from .exactalg import EXPONENT_BOUND, ExponentOverflow, PolyFp, PolyMatrix, PrimeField
from .rootdata import GroupId, RootDatum, root_datum


class UnknownModule(KeyError):
    pass


class GradingViolated(AssertionError):
    """A module table whose weights do not grade its root elements."""


# ---------------------------------------------------------------------------
# Integer-level module data
# ---------------------------------------------------------------------------

# (group, module) -> (E, weights, D, basis), the faithful module first for
# each group.  E holds the x-linear parts of the positive root elements as
# {root index: {(row, col): int}}, 0-indexed; D is the contravariant-form
# diagonal, fixed by [e_a, f_a] = h_a for every root.
_MODULES = {
    (GroupId.SL3, "natural"): (
        {1: {(0, 1): 1}, 2: {(1, 2): 1}, 3: {(0, 2): 1}},
        ((1, 0), (-1, 1), (0, -1)),
        (1, 1, 1),
        ("e1", "e2", "e3"),
    ),
    # Signs chosen so that collecting u(a)u(b) yields the reference system
    # for Sp4: the commutator relations are
    #   u2(y) u1(x) = u1(x) u2(y) u3(-xy) u4(-x y^2)
    #   u3(z) u2(y) = u2(y) u3(z) u4(2yz)
    (GroupId.SP4, "V2"): (
        {
            1: {(1, 2): -1},
            2: {(0, 1): 1, (2, 3): 1},
            3: {(0, 2): 1, (1, 3): -1},
            4: {(0, 3): 1},
        },
        ((0, 1), (1, -1), (-1, 1), (0, -1)),
        (1, 1, 1, 1),
        ("v21", "v22", "v23", "v24"),
    ),
    # The integer span of the f-monomial vectors m1 = v21^v22, f_1 m1,
    # f_{a1+a2} m1, f_{a1+2a2} m1 and f_1 f_{a1+2a2} m1 inside wedge2(V2),
    # in that basis; tests/test_chevrep.py re-derives it there.
    (GroupId.SP4, "V1"): (
        {
            1: {(0, 1): 1, (3, 4): 1},
            2: {(1, 2): 2, (2, 3): 1},
            3: {(0, 2): 2, (2, 4): -1},
            4: {(0, 3): 1, (1, 4): 1},
        },
        ((1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0)),
        (1, 1, 2, 1, 1),
        ("v11", "v12", "v13", "v14", "v15"),
    ),
    (GroupId.G2, "V"): (
        {
            1: {(0, 1): 1, (2, 3): 2, (3, 4): 1, (5, 6): 1},
            2: {(1, 2): -1, (4, 5): 1},
            3: {(0, 2): 1, (1, 3): -2, (3, 5): -1, (4, 6): 1},
            4: {(0, 3): 2, (1, 4): -1, (2, 5): 1, (3, 6): -1},
            5: {(0, 4): 1, (2, 6): 1},
            6: {(0, 5): 1, (1, 6): 1},
        },
        ((1, 0), (-1, 1), (2, -1), (0, 0), (-2, 1), (1, -1), (-1, 0)),
        (1, 1, 1, 2, 1, 1, 1),
        ("v1", "v2", "v3", "v4", "v5", "v6", "v7"),
    ),
}


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


def basis_name(group: GroupId) -> str:
    """The faithful module of the group."""
    return all_modules(group)[0]


def all_modules(group: GroupId) -> tuple[str, ...]:
    return tuple(name for g, name in _MODULES if g is group)


@lru_cache(maxsize=None)
def _base_data(group: GroupId, module: str) -> BaseRepData:
    """The integer divided powers of a module, checked once against its
    weights: every entry (r, c) of e^(k) for the signed root +-alpha moves
    the weight by +-k alpha, which is t u_alpha(x) t^-1 = u_alpha(alpha(t) x)
    in the module.  Each torus ray, the torus classes of
    ``subgrp.check_additive`` and matching up to the torus rest on it, so a
    table that breaks it raises ``GradingViolated``."""
    try:
        e_data, weights, d, basis = _MODULES[group, module]
    except KeyError:
        raise UnknownModule(f"no module {module!r} for {group}") from None
    pos = {i: _divided_powers(e) for i, e in e_data.items()}
    neg = {
        i: _divided_powers(_contravariant_transpose(e, d))
        for i, e in e_data.items()
    }
    datum = root_datum(group)
    for i in e_data:
        a1, a2 = datum.weight_coords(datum.positive_roots[i - 1])
        for sign, powers in ((1, pos[i]), (-1, neg[i])):
            for k, mat in powers:
                shift = (sign * k * a1, sign * k * a2)
                for r, c in mat:
                    (w1, w2), (v1, v2) = weights[r], weights[c]
                    moved = (w1 - v1, w2 - v2)
                    if moved != shift:
                        raise GradingViolated(
                            f"{group} {module}: entry ({basis[r]}, {basis[c]}) of "
                            f"e^({k}) for root {sign * i} moves weight by {moved}, "
                            f"not by {shift}"
                        )
    return BaseRepData(group, module, basis, weights, pos, neg)


# ---------------------------------------------------------------------------
# Field-bound representations
# ---------------------------------------------------------------------------


class Representation:
    """A named module over F_p (or Z, p = 0) with root-element matrices in
    one parameter."""

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
        """The root element 1 + sum_k param^k M_k at a polynomial (or
        integer) parameter value, M_k the integer divided powers."""
        if isinstance(param, int):
            param = PolyFp.const(self.field, param)
        m = PolyMatrix.identity(self.field, self.dim)
        entries = m.entries
        for k, mat in self.divided_powers(root):
            pk = param**k
            for (r, c), v in mat.items():
                entries[r][c] = entries[r][c] + pk * v
        return m

    def u_rows(self, factors) -> list[list[dict[int, int]]]:
        """The coefficient rows of u(x) = prod u_root(c x^q) over the
        (signed root, c, q) factors in order, coefficients in [1, p).

        From the identity, each factor 1 + sum c^k v x^{kq} E_rs is
        multiplied in as rows[.][s] += rows[.][r] c^k v x^{kq}.  Every
        exponent, even of a product term that cancels, is held to
        EXPONENT_BOUND, as in ``exactalg.rows_product``.
        """
        p = self.field.p
        n = self.dim
        rows = [[{0: 1} if r == s else {} for s in range(n)] for r in range(n)]
        for root, c, q in factors:
            c %= p
            if not c:
                continue
            top, monomials = _root_monomials(self.group, self.name, p, root)
            if top * q > EXPONENT_BOUND:
                raise ExponentOverflow(top * q)
            by_src: dict[int, list] = {}  # the factor's monomials by row r
            for r, s, k, v in monomials:
                by_src.setdefault(r, []).append((s, k * q, pow(c, k, p) * v))
            for row in rows:
                # read from the entries before this factor, write to copies
                new: dict[int, dict[int, int]] = {}
                for r, terms in by_src.items():
                    src = row[r]
                    if not src:
                        continue
                    deg = max(src)
                    for s, e, v in terms:
                        if deg + e > EXPONENT_BOUND:
                            raise ExponentOverflow(deg + e)
                        dst = new.get(s)
                        if dst is None:
                            dst = new[s] = dict(row[s])
                        get = dst.get
                        for e0, c0 in src.items():
                            dst[e0 + e] = get(e0 + e, 0) + c0 * v
                for s, dst in new.items():
                    row[s] = {e: c % p for e, c in dst.items() if c % p}
        return rows

    def u_degree(self, factors) -> int:
        """sum top q over the factors with c nonzero mod p, top the largest
        k of the root's divided powers: no exponent that ``u_rows`` builds
        from the factors, and so none that it holds to EXPONENT_BOUND,
        exceeds it."""
        p = self.field.p
        return sum(
            max(k for k, _ in self.divided_powers(root)) * q
            for root, c, q in factors
            if c % p
        )

    def probe(self, root: int) -> tuple[int, int, int]:
        """A unit entry (row, col, +-1) of the x-linear part of a root element."""
        lin = dict(self.divided_powers(root))[1]
        for (r, c), v in sorted(lin.items()):
            if v in (1, -1):
                return r, c, v
        raise ValueError(f"no unit probe entry for root {root} in {self.name}")

    def __repr__(self) -> str:
        return f"Representation({self.group}, {self.name}, F{self.field.p})"


@lru_cache(maxsize=None)
def _root_monomials(group: GroupId, module: str, p: int, root: int) -> tuple[int, tuple]:
    """(top, monomials): u_root(c x^q) = 1 + sum c^k v x^{kq} E_rs over the
    (r, s, k, v), v the divided-power entries mod p, zeros dropped; top is
    the largest k, vanishing mod p or not, to which ``u_rows`` holds k q."""
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

    ``leaf_matrices`` maps leaf module names to the element's matrix there;
    the coefficients live in those matrices' field.  ``vec`` maps structured
    labels to PolyFp (or int) coefficients.  Large symmetric/tensor powers
    are handled without building their matrices.
    """
    field = next(iter(leaf_matrices.values())).field

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
