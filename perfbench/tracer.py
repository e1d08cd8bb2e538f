"""Time the engine's public functions from outside, as nested spans.

The tracer replaces each target function with a wrapper that records a
span around the call.  A target is rebound under every name it has: in
every ``rank2chev`` module that imported it (``subgrp.conjugate_by_word``,
``witness.rows_for_group``, ``cli.run_suite``, ...) and under every class
attribute that holds it (``PolyFp.__radd__ = __add__``).  The wrapper
calls the original object, so an ``lru_cache`` keeps caching, and
``uninstall`` puts every original binding back.

Per target it keeps ``calls``, ``total_s`` (outermost spans only, so
recursion is not counted twice) and ``self_s`` (span minus the spans of
wrapped callees).  Per (caller, callee) pair of wrapped functions it keeps
the call count and the callee's time.  A target may name a hook that
folds its return value into a counter.

Run as a script, it runs the ``rank2chev`` CLI under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- --suite tables

writes the trace to TRACE.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (name, module, qualified attribute, result hook).  A hook maps the
# return value to the amount added to the counter of the same name.
TARGETS = (
    ("report.run_suite", "report", "run_suite", None),
    # subgrp: search, hit re-verification, table matching, tables suite
    ("subgrp.search_solutions", "subgrp", "search_solutions", len),
    ("subgrp._enumerate_additive", "subgrp", "_enumerate_additive", len),
    ("subgrp.check_additive", "subgrp", "check_additive", None),
    ("subgrp.solve_torus", "subgrp", "solve_torus", None),
    ("subgrp.match_to_table", "subgrp", "match_to_table", None),
    ("rootdata.conjugate_by_word", "rootdata", "conjugate_by_word", None),
    ("subgrp.normal_form_factorize", "subgrp", "normal_form_factorize", None),
    ("subgrp.load_case_rows", "subgrp", "load_case_rows", None),
    ("subgrp.rows_for_group", "subgrp", "rows_for_group", None),
    ("subgrp.u_matrix", "subgrp", "u_matrix", None),
    ("subgrp.verify_case", "subgrp", "verify_case", None),
    ("subgrp.verify_system", "subgrp", "verify_system", None),
    ("subgrp.binomial_coeffs_modp", "subgrp", "binomial_coeffs_modp", None),
    # exactalg: the ring kernel
    ("exactalg.PolyMatrix.__mul__", "exactalg", "PolyMatrix.__mul__", None),
    ("exactalg.PolyFp.__mul__", "exactalg", "PolyFp.__mul__", None),
    ("exactalg.PolyFp.__add__", "exactalg", "PolyFp.__add__", None),
    # chevrep: module construction
    ("chevrep.build_rep", "chevrep", "build_rep", None),
    # lemmas
    ("lemmas.check_poly_lemma", "lemmas", "check_poly_lemma", None),
    ("lemmas.check_ppower_lemma", "lemmas", "check_ppower_lemma", None),
    # existence: the GF(p^2) Burnside span
    ("existence.existence_records", "existence", "existence_records", None),
    ("existence.burnside_irreducible", "existence", "burnside_irreducible", None),
    ("existence._ExtSpan.insert", "existence", "_ExtSpan.insert", bool),
    # witness
    ("witness.load_witness_rows", "witness", "load_witness_rows", None),
    ("witness.verify_witness", "witness", "verify_witness", None),
    ("witness._fallback_witness", "witness", "_fallback_witness", None),
    ("witness._case_row", "witness", "_case_row", None),
    ("witness.verify_weight_row", "witness", "verify_weight_row", None),
    ("witness.check_principal_a1", "witness", "check_principal_a1", None),
    ("witness.membership_cases", "witness", "membership_cases", None),
    ("witness.check_membership", "witness", "check_membership", None),
)

# Attributes of an lru_cache object that callers may use on the wrapper.
_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


class Tracer:
    """Spans and counters for the wrapped functions of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}  # name -> sum of its hook
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, span_s]
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """A wrapper of ``fn`` that records each call as a span ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        if hook is not None:
            self.counters.setdefault(name, 0)
        counters, edges = self.counters, self.edges
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                depth[name] = outer
                stats[0] += 1
                if not outer:
                    stats[1] += span
                stats[2] += span - frame[1]
                if parent is not None:
                    parent[1] += span
                    edge = edges.get((parent[0], name))
                    if edge is None:
                        edges[(parent[0], name)] = [1, span]
                    else:
                        edge[0] += 1
                        edge[1] += span
            if hook is not None:
                counters[name] += hook(result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target under every binding it has in ``rank2chev``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("rank2chev.cli")  # imports every module
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "rank2chev" or n.startswith("rank2chev.")
        ]
        for name, module, qualname, hook in targets:
            owner = importlib.import_module(f"rank2chev.{module}")
            path, _, attr = qualname.rpartition(".")
            if path:
                owner = getattr(owner, path)
            original = vars(owner)[attr]
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"{name} is a generator; a span would end early")
            wrapper = self.wrap(name, original, hook)
            # a class is searched for aliases in itself, a function in
            # every module of the package
            for space in [owner] if path else modules:
                for alias, value in list(vars(space).items()):
                    if value is original:
                        self._patches.append((space, alias, original))
                        setattr(space, alias, wrapper)

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._patches:
            space, alias, original = self._patches.pop()
            setattr(space, alias, original)

    def to_json(self) -> dict:
        return {
            "functions": {
                n: {"calls": c, "total_s": t, "self_s": s}
                for n, (c, t, s) in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "edges": [
                {"caller": a, "callee": b, "calls": c, "span_s": s}
                for (a, b), (c, s) in sorted(self.edges.items())
            ],
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- [rank2chev args]", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    from rank2chev import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
