"""Fixed-vector witnesses for the non-existence side of the classification.

For every non-reductive case the data file ships a module expression and a
vector w; verification checks, per instantiation:

  (i)   u(x) w = w identically in x,
  (ii)  w has T_H-weight zero,
  (iii) w is not fixed by the full torus (its weight decomposition is not
        concentrated in weight (0, 0)).

If (i) fails for the printed vector, the full U_H-fixed subspace is
computed (simultaneous kernel of the x-graded slices of u(x) - 1),
intersected with the T_H-weight-0 subspace, and searched for a valid
witness.  A hit makes the record "discrepant" only on a row the data file
flags ``discrepant``; on any other row, and when nothing is found (the
strong failure that would contradict the classification), the record is
"fail".  Reductive cases are covered by subsystem membership
checks, and the three principal rank-1 cases by exact matrix comparison
with twisted degree-n forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

from . import chevrep, subgrp, symexpr
from .exactalg import PolyFp, PrimeField, field_ratio, nullspace
from .rootdata import GroupId, root_datum
from .subgrp import (
    BOX_F_RANGE,
    BOX_PRIMES,
    G2_WEIGHT_ROWS,
    CaseRow,
    DataFileCorrupt,
    UNCHECKED,
    TSpec,
    USpec,
    ZeroCocharacter,
    inst_key,
    instantiations,
    record,
    rows_for_group,
    u_matrix,
    unsatisfiable,
)


class RescalingUnsolvable(AssertionError):
    pass


# ---------------------------------------------------------------------------
# Data file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessRow:
    group: GroupId
    case: str
    guard: str  # "-" or a comparison over p and the case row's q-symbols
    module_src: str
    vector_src: str
    line: int
    discrepant: bool  # the printed vector is known to fail somewhere

    def label(self) -> str:
        suffix = "" if self.guard == "-" else f"[{self.guard}]"
        return f"{self.group}/case{self.case}{suffix}"

    def corrupt(self, msg) -> DataFileCorrupt:
        return DataFileCorrupt(f"line {self.line}: witness {self.label()}: {msg}")


def load_witness_rows(path=None) -> tuple[WitnessRow, ...]:
    rows = []
    for lineno, parts in subgrp.read_data_lines("witnesses.txt", path):
        if len(parts) not in (5, 6):
            raise DataFileCorrupt(f"witness line {lineno}: expected 5 or 6 fields")
        if parts[5:] not in ([], ["discrepant"]):
            raise DataFileCorrupt(f"witness line {lineno}: unknown flag {parts[5]!r}")
        try:
            group = GroupId(parts[0])
        except ValueError as exc:
            raise DataFileCorrupt(f"witness line {lineno}: bad group") from exc
        try:
            _guard_rule(parts[2])
        except symexpr.ExprError as exc:
            raise DataFileCorrupt(f"witness line {lineno}: bad guard: {exc}") from exc
        row = WitnessRow(group, *parts[1:5], lineno, len(parts) == 6)
        _check_row(row)
        rows.append(row)
    return tuple(rows)


def _check_row(wrow: WitnessRow) -> None:
    """Check what verification would trip on, also for a branch that no
    instantiation meets: the case row exists, every leaf module is one
    chevrep builds for the group, and every bracketed coefficient names
    only free coefficients of the case row."""
    try:
        free = set(_case_row(wrow.group, wrow.case).free_coeffs)
        # any field: only the leaf names are read
        parse_module_expr(wrow.module_src, wrow.group, PrimeField(2))
        tok = symexpr.Parser(wrow.vector_src)
        while (start := wrow.vector_src.find("[", tok.pos)) >= 0:
            tok.pos = start + 1
            unknown = symexpr.poly_symbols(tok.expr()) - free
            if unknown:
                raise DataFileCorrupt(f"symbol {min(unknown)} unassigned")
            tok.expect("]")
    except (symexpr.ExprError, DataFileCorrupt) as exc:
        raise wrow.corrupt(exc) from exc


def _guard_rule(guard: str) -> symexpr.Rule | None:
    return None if guard == "-" else symexpr.parse_comparison(guard)


# ---------------------------------------------------------------------------
# Module and vector expressions
# ---------------------------------------------------------------------------

def _embedded(tok: symexpr.Parser, env) -> tuple[str, Fraction]:
    """An embedded form such as q1-2q3, read in place: its text and value."""
    tok.peek()
    start = tok.pos
    val = symexpr.poly_eval(tok.expr(), env)
    return tok.text[start : tok.pos].rstrip(), val


def _legs(tok: symexpr.Parser, read) -> list:
    """Parenthesised, comma-separated arguments; read(i) reads the i-th."""
    tok.expect("(")
    out = [read(0)]
    while tok.peek() == ",":
        tok.pos += 1
        out.append(read(len(out)))
    tok.expect(")")
    return out


def parse_module_expr(src: str, group: GroupId, field: PrimeField, q_env=None):
    """Build a chevrep expression tree from the data-file module syntax.

    ``q_env`` assigns the p-power symbols of the symmetric powers' forms.
    Without it each form is read but not evaluated, and its power is 0:
    such a tree serves only to name its leaves.
    """

    def build():
        name = tok.ident()
        if name in ("wedge2", "wedge3"):
            tok.expect("(")
            child = build()
            tok.expect(")")
            return chevrep.Ext(2 if name == "wedge2" else 3, child)
        if name == "S":
            tok.expect("(")
            if q_env is None:
                tok.expr()
                val = 0
            else:
                form, val = _embedded(tok, q_env)
                if val.denominator != 1 or val <= 0:
                    raise DataFileCorrupt(f"symmetric power {form!r} -> {val}")
            tok.expect(",")
            child = build()
            tok.expect(")")
            return chevrep.Sym(int(val), child)
        if name == "T":
            return chevrep.Tensor(tuple(_legs(tok, lambda i: build())))
        leaf = chevrep.basis_name(group) if name == "V" else name
        try:
            return chevrep.Leaf(chevrep.build_rep(group, leaf, field))
        except chevrep.UnknownModule as exc:
            raise DataFileCorrupt(exc.args[0]) from exc

    tok = symexpr.Parser(src)
    expr = build()
    tok.end()
    return expr


def parse_vector(src: str, expr, field: PrimeField, env, q_env):
    """Evaluate the data-file vector syntax to {label: coeff} in a module.

    ``env`` assigns the free case coefficients; ``q_env`` the p-power
    symbols used inside pw(...) forms.
    """

    def scalar(poly) -> int:
        val = symexpr.poly_eval(poly, env)
        return field_ratio(val.numerator, val.denominator, field)

    def reduced(vec: dict) -> dict:
        return {k: v % field.p for k, v in vec.items() if v % field.p}

    def merge(acc: dict, other: dict, scale: int = 1):
        for k, v in other.items():
            s = (acc.get(k, 0) + scale * v) % field.p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return acc

    def vec_sum(node) -> dict:
        # signed terms [scalar]*vector, n*vector or vector; only the first
        # may go without a sign
        acc: dict = {}
        while True:
            sign = 1
            if tok.peek() in ("+", "-"):
                sign = -1 if tok.peek() == "-" else 1
                tok.pos += 1
            coeff = 1
            if tok.peek() == "[":
                tok.pos += 1
                coeff = scalar(tok.expr())
                tok.expect("]")
                tok.expect("*")
            elif tok.peek().isdigit():
                coeff = tok.number()
                tok.expect("*")
            merge(acc, vec_factor(node), sign * coeff % field.p)
            if tok.peek() not in ("+", "-"):
                return acc

    def vec_factor(node) -> dict:
        if tok.peek() == "(":
            tok.pos += 1
            out = vec_sum(node)
            tok.expect(")")
            return out
        name = tok.ident()
        if name == "w":
            if not isinstance(node, chevrep.Ext):
                raise DataFileCorrupt("wedge vector outside an exterior power")
            legs = _legs(tok, lambda i: vec_sum(node.child))
            if len(legs) != node.power:
                raise DataFileCorrupt("wedge arity mismatch")
            return reduced(chevrep.wedge_legs(legs, chevrep.basis_order(node.child)))
        if name == "t":
            if not isinstance(node, chevrep.Tensor):
                raise DataFileCorrupt("tensor vector outside a tensor product")

            def leg(i: int) -> dict:
                if i >= len(node.children):
                    raise DataFileCorrupt("tensor arity mismatch")
                return vec_sum(node.children[i])

            legs = _legs(tok, leg)
            if len(legs) != len(node.children):
                raise DataFileCorrupt("tensor arity mismatch")
            return reduced(chevrep.tensor_legs(legs))
        if name == "pw":
            if not isinstance(node, chevrep.Sym):
                raise DataFileCorrupt("pw(...) outside a symmetric power")
            tok.expect("(")
            form, a = _embedded(tok, q_env)
            tok.expect(",")
            inner = vec_sum(node.child)
            tok.expect(")")
            if a != node.power:
                raise DataFileCorrupt(
                    f"pw power {form!r} = {a} does not match module {node.power}"
                )
            order = chevrep.basis_order(node.child)
            return reduced(chevrep.sym_legs([inner] * node.power, order))
        # a bare basis label of the leaf module
        if not isinstance(node, chevrep.Leaf) or name not in node.rep.basis:
            raise DataFileCorrupt(f"label {name!r} is not a basis vector of {node!r}")
        return {node.rep.basis.index(name): 1}

    tok = symexpr.Parser(src)
    out = vec_sum(expr)
    tok.end()
    return out


# ---------------------------------------------------------------------------
# Instantiation of guard branches
# ---------------------------------------------------------------------------

def guard_instantiation(case_row: CaseRow, guard: str) -> tuple[int, dict] | None:
    """Smallest (p, f-assignment) satisfying the row constraint and guard,
    or None when no p of subgrp.BOX_PRIMES and f below BOX_F_RANGE does.

    The smallest admissible p wins; then the least sum of the p-powers the
    guard names, ties going to the smaller exponents of the left side's
    symbols.  The case row's other q-symbols get f = 0.
    """
    rule = _guard_rule(guard)
    named = symexpr.rule_symbols(rule) - {"p"} if rule else set()
    unknown = named - set(case_row.q_symbols)
    if unknown:
        raise DataFileCorrupt(
            f"guard names {', '.join(sorted(unknown))}, neither p nor a "
            f"q-symbol of {case_row.label()}"
        )
    left = symexpr.poly_symbols(rule[1]) if rule else set()
    syms = sorted(named, key=lambda s: (s not in left, s))
    for p in filter(case_row.allows_p, BOX_PRIMES):
        exps = product(range(BOX_F_RANGE), repeat=len(syms))
        for fs in sorted(exps, key=lambda fs: (sum(p**f for f in fs), fs)):
            env = {"p": p, **{s: p**f for s, f in zip(syms, fs)}}
            if rule is None or symexpr.holds(rule, env):
                return p, {**{s: 0 for s in case_row.q_symbols}, **dict(zip(syms, fs))}
    return None


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------

FALLBACK_DIM_CAP = 600


def verify_witness(wrow: WitnessRow) -> list[dict]:
    """Verify one witness row at its guard branch's smallest instantiation.

    Returns one record per instantiation of ``subgrp.instantiations``, or
    one "fail" record for the branch when the guard leaves none.
    """
    try:
        case_row = _case_row(wrow.group, wrow.case)
        inst = guard_instantiation(case_row, wrow.guard)
    except DataFileCorrupt as exc:
        raise wrow.corrupt(exc) from exc
    if inst is None:
        return [record(wrow.label(), "fail", unsatisfiable(case_row, wrow.guard))]
    p, f_assign = inst
    check = partial(_verify_one, wrow, f_assign)
    return instantiations(case_row, wrow.label(), p, f_assign, check)


def _case_row(group: GroupId, case: str) -> CaseRow:
    for row in rows_for_group(group):
        if row.case == case:
            return row
    raise DataFileCorrupt(f"no case row {group}/case{case} in case_tables.txt")


def _verify_one(wrow, f_assign, spec: USpec, t: TSpec, coeff_env, key):
    field = spec.field
    q_env = {s: spec.field.p ** f for s, f in f_assign.items()}
    try:
        expr = parse_module_expr(wrow.module_src, wrow.group, field, q_env)
        w = parse_vector(wrow.vector_src, expr, field, coeff_env, q_env)
    except (symexpr.ExprError, DataFileCorrupt) as exc:
        raise wrow.corrupt(exc) from exc
    leaf_mats = {
        name: u_matrix(spec, chevrep.build_rep(wrow.group, name, field))
        for name in chevrep.leaf_names(expr)
    }
    if w:
        fixed = _acts_trivially(expr, leaf_mats, w, field)
        wt_zero = _th_weight_zero(expr, w, t)
        not_t_fixed = _not_torus_fixed(expr, w)
    else:
        fixed = wt_zero = not_t_fixed = False
    if fixed and wt_zero and not_t_fixed:
        return record(wrow.label(), "pass", instantiation=key)
    # fallback: compute the full fixed space and look for a valid witness
    found, detail = _fallback_witness(expr, leaf_mats, t, field)
    if not w:
        reason = ["printed vector is zero at this instantiation"]
    else:
        reason = []
        if not fixed:
            reason.append("u(x)-fixedness fails")
        if not wt_zero:
            reason.append("nonzero T_H-weight")
        if not not_t_fixed:
            reason.append("vector is T-fixed")
    failed = f"printed vector fails ({'; '.join(reason)})"
    if found is None:
        detail = f"{failed} and the fixed-space search found nothing: {detail}"
        return record(wrow.label(), "fail", detail, key)
    if not wrow.discrepant:
        detail = f"{failed} on a row not flagged discrepant; fallback witness {found}"
        return record(wrow.label(), "fail", detail, key)
    return record(wrow.label(), "discrepant", f"{failed}; fallback witness {found}", key)


def _acts_trivially(expr, leaf_mats, w: dict, field: PrimeField) -> bool:
    image = chevrep.act_on_vector(expr, leaf_mats, w)
    target = {k: PolyFp.const(field, v) for k, v in w.items()}
    if set(image) != set(target):
        return False
    return all(image[k] == target[k] for k in target)


def _th_weight_zero(expr, w: dict, t: TSpec) -> bool:
    for label in w:
        wt = chevrep.expr_weight(expr, label)
        if wt[0] * t.m1 + wt[1] * t.m2 != 0:
            return False
    return True


def _not_torus_fixed(expr, w: dict) -> bool:
    weights = {chevrep.expr_weight(expr, label) for label in w}
    return weights != {(0, 0)}


def _fallback_witness(expr, leaf_mats, t: TSpec, field: PrimeField):
    """Search the U_H-fixed, T_H-weight-0 subspace for a usable witness.

    Returns (witness description, detail) or (None, reason).
    """
    dim = chevrep.expr_dim(expr)
    if dim > FALLBACK_DIM_CAP:
        return None, f"module dimension {dim} above fallback cap"
    zero = [
        (label, wt)
        for label in chevrep.expr_basis(expr)
        if (wt := chevrep.expr_weight(expr, label))[0] * t.m1 + wt[1] * t.m2 == 0
    ]
    if not zero:
        return None, "T_H-weight-0 subspace is trivial"
    # constraint rows: the x^k slices (k >= 1) of u(x) - 1 on the weight-0
    # basis vectors; the x^0 slice is the identity and drops out
    row_map: dict = {}
    for j, (label, _) in enumerate(zero):
        image = chevrep.act_on_vector(expr, leaf_mats, {label: 1})
        constant = {}
        for image_label, coeff in image.items():
            for mono, v in coeff.monomials():
                k = mono.get("x", 0)
                if k == 0:
                    constant[image_label] = v
                    continue
                row = row_map.setdefault((image_label, k), [0] * len(zero))
                row[j] = v
        if constant != {label: 1}:
            raise AssertionError("u(0) is not the identity")
    basis = nullspace(row_map.values(), len(zero), field.p)
    if not basis:
        return None, "no U_H-fixed vector of T_H-weight 0"
    for vec in basis:
        weights = {zero[j][1] for j, v in enumerate(vec) if v}
        if weights != {(0, 0)}:
            desc = " + ".join(
                f"{v}*[{zero[j][0]}]" for j, v in enumerate(vec) if v
            )
            return desc, ""
    return None, "every fixed weight-0 vector is fixed by the full torus"


# ---------------------------------------------------------------------------
# Torus weights on the 7-dimensional module (G2 cases, subgrp.G2_WEIGHT_ROWS)
# ---------------------------------------------------------------------------


def weight_row_formulas(case: str) -> list[symexpr.SymPoly] | None:
    for cases, text in G2_WEIGHT_ROWS.items():
        if case in cases:
            return [symexpr.parse_expr(t) for t in text.split(",")]
    return None


def verify_weight_row(case: str, p: int, f_assign: dict) -> dict:
    """Check the recorded torus weights on the basis of the 7-dim module.

    The recorded row gives the weights for m = 1; they must equal the
    pairing of each basis weight with the case's cocharacter; an
    m-pattern that gives no cocharacter there is a fail record.
    """
    case_row = _case_row(GroupId.G2, case)
    q_env = {s: p**f for s, f in f_assign.items()}
    formulas = weight_row_formulas(case)
    if formulas is None:
        raise KeyError(f"no weight row recorded for G2 case {case}")
    want = [int(symexpr.poly_eval(fm, q_env)) for fm in formulas]
    label, key = f"G2/case{case}/weights", inst_key(p, f_assign, {})
    try:
        t = case_row.tspec(q_env)
    except ZeroCocharacter as exc:
        return record(label, "fail", f"{UNCHECKED[ZeroCocharacter]}: {exc}", key)
    if t.m != 1:
        raise ValueError("weight rows are recorded for integral m-patterns only")
    rep = chevrep.build_rep(GroupId.G2, "V", PrimeField(p))
    got = list(chevrep.cocharacter_weights(rep, t))
    if got != want:
        return record(label, "fail", f"weights {got} != recorded {want}", key)
    return record(label, "pass", "", key)


def weight_row_records() -> list[dict]:
    """Each recorded G2 weight row at the smallest p its case allows."""
    records = []
    for cases in sorted(G2_WEIGHT_ROWS, key=lambda c: c[0]):
        for case in cases:
            row = _case_row(GroupId.G2, case)
            inst = guard_instantiation(row, "-")
            records.append(
                verify_weight_row(case, *inst) if inst else
                record(f"G2/case{case}/weights", "fail", unsatisfiable(row, "-"))
            )
    return records


# ---------------------------------------------------------------------------
# Principal rank-1 identifications (the three case-1 rows)
# ---------------------------------------------------------------------------

_PRINCIPAL_DATA = {
    # group: (degree of the forms, gamma vector or None to solve)
    GroupId.SL3: (2, None),
    GroupId.SP4: (3, None),
    GroupId.G2: (6, (1, 1, -2, -3, -12, -60, -360)),
}


def _rank1_unipotent(field: PrimeField, n: int, q: int) -> list[list[dict]]:
    """Coefficient rows of [[1, x^q], [0, 1]] on degree-n forms
    w_i = X^{n-i} Y^i, in the {exponent: coeff} form of ``u_rows``."""
    rows = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1):
            coeff = comb(i, j) % field.p
            if coeff:
                rows[j][i] = {(i - j) * q: coeff}
    return rows


def _rescaling_rows(case: list, model: list) -> list[list[int]]:
    """The linear system case[r][c] gamma_c = model[r][c] gamma_r.

    One integer row per entry (r, c) and power of x; the diagonal gammas
    with case = Gamma model Gamma^-1 are its kernel.
    """
    n = len(case)
    rows = []
    for r in range(n):
        for c in range(n):
            a, b = case[r][c], model[r][c]
            for e in a.keys() | b.keys():
                row = [0] * n
                row[c] += a.get(e, 0)
                row[r] -= b.get(e, 0)
                rows.append(row)
    return rows


def _rescaling_gamma(rows: list, n: int, p: int) -> list[int]:
    """The one solution gamma of the rows over F_p, scaled to gamma_0 = 1.

    Raises RescalingUnsolvable unless the kernel is one-dimensional and its
    vector has no zero entry.
    """
    kernel = nullspace(rows, n, p)
    if len(kernel) != 1:
        raise RescalingUnsolvable(f"rescaling kernel has dimension {len(kernel)}")
    (gam,) = kernel
    if not all(gam):
        raise RescalingUnsolvable(f"rescaling {tuple(gam)} has a zero entry")
    inv = pow(gam[0], p - 2, p)
    return [g * inv % p for g in gam]


def check_principal_a1(group: GroupId, p: int | None = None, f: int = 0) -> dict:
    """Exact matrix comparison of the case-1 subgroup with twisted forms.

    Builds the rank-1 module of highest weight n on degree-n forms, applies
    the q1-power twist and a diagonal basis rescaling (printed for G2,
    solved for SL3/SP4 as the one kernel vector of the entrywise
    conjugation identity), and asserts matrix-level equality of both u(x)
    and the torus action.  p defaults to the smallest prime the case-1 row
    allows.  A comparison that fails is a "fail" record.
    """
    n, gamma = _PRINCIPAL_DATA[group]
    case_row = _case_row(group, "1")
    case = f"{group}/case1/principal-rank1"
    if p is None:
        inst = guard_instantiation(case_row, "-")
        if inst is None:
            return record(case, "fail", f"{group}: {unsatisfiable(case_row, '-')}")
        p = inst[0]
    q = p**f

    def check(spec: USpec, t: TSpec, _coeffs, key) -> dict:
        field = spec.field
        rep = chevrep.faithful_rep(group, field)
        rows = _rescaling_rows(rep.u_rows(spec.factors), _rank1_unipotent(field, n, q))

        def fail(detail: str) -> dict:
            return record(case, "fail", f"{group}: {detail}", key)

        if gamma is not None:
            gam = [field.reduce(g) for g in gamma]
            if any(sum(a * g for a, g in zip(row, gam)) % p for row in rows):
                return fail("printed rescaling does not match the rank-1 model")
        else:
            try:
                gam = _rescaling_gamma(rows, rep.dim, p)
            except RescalingUnsolvable as exc:
                return fail(str(exc))
        # torus comparison: with mu^2 = lambda^m the case weights e_i and the
        # model weights f_i = q (n - 2i) must satisfy 2 e_i = m f_i
        for i in range(rep.dim):
            e_i = rep.weights[i][0] * t.m1 + rep.weights[i][1] * t.m2
            f_i = q * (n - 2 * i)
            if 2 * e_i != t.m * f_i:
                return fail(
                    f"torus weights disagree at basis {i}: 2*{e_i} != {t.m}*{f_i}"
                )
        detail = f"rescaling {tuple(gam)}"
        if group is not GroupId.SL3:
            return record(case, "pass", detail, key)
        # the recorded description calls the highest-weight-2q1 module
        # two-dimensional; it is three-dimensional, which is what verifies
        return record(
            case,
            "discrepant",
            detail + (
                "; recorded wording says 2-dimensional module of highest weight "
                "2q1, verified with the 3-dimensional one"
            ),
            key,
        )

    # one record, as a case-1 row has no free coefficients; else a fail wins
    records = instantiations(case_row, case, p, {case_row.q_symbols[0]: f}, check)
    return next((r for r in records if r["status"] == "fail"), records[0])


# ---------------------------------------------------------------------------
# Reductive cases: subsystem membership
# ---------------------------------------------------------------------------

# support roots of each reductive case and the closed subsystem containing
# them (positive roots of the subsystem, in simple-root coordinates)
_MEMBERSHIP = {
    (GroupId.SP4, "2"): ("A1xA1", ((1, 0), (1, 2))),
    (GroupId.G2, "9"): ("A1xA1", ((1, 0), (3, 2))),
    (GroupId.G2, "20"): ("long A2", ((0, 1), (3, 1), (3, 2))),
    (GroupId.G2, "21"): ("long A2", ((0, 1), (3, 1), (3, 2))),
}


def membership_cases() -> tuple[tuple[GroupId, str], ...]:
    return tuple(sorted(_MEMBERSHIP, key=lambda k: (k[0].value, k[1])))


def check_membership(group: GroupId, case: str) -> dict:
    """The case's unipotent support lies in a proper closed subsystem.

    Checks that the subsystem is closed (sums of subsystem roots that are
    roots stay inside) and contains the support; together with the torus
    this places H inside the corresponding reductive subgroup.
    """
    name, subsystem = _MEMBERSHIP[(group, case)]
    label = f"{group}/case{case}/membership"
    datum = root_datum(group)
    case_row = _case_row(group, case)
    signed = set()
    for a, b in subsystem:
        signed.add((a, b))
        signed.add((-a, -b))
    all_roots = set(datum.all_roots())
    for x in signed:
        for y in signed:
            s = (x[0] + y[0], x[1] + y[1])
            if s in all_roots and s not in signed:
                return record(label, "fail", f"subsystem {name} is not closed at {s}")
    support_roots = {datum.positive_roots[i - 1] for i in case_row.support}
    if support_roots <= set(subsystem):
        return record(label, "pass", f"support inside {name}")
    return record(label, "fail", "support escapes subsystem")
