"""Per-layer spans for one traced ``isingforms`` run, recorded from outside.

Run as ``python3 perfbench/spans.py FD ARGS...`` with ``src`` on PYTHONPATH:
it imports the package, wraps the public functions listed in ``TARGETS``
under every module name that binds them (callers import by name), runs
``isingforms.cli.main(ARGS)`` unchanged on the real stdout, restores the
originals, and writes the per-layer metrics as one JSON object to file
descriptor FD. Its exit code is the command's.

A span opens around every call into a wrapped function; a stack records the
nesting. A span's self time is its duration minus the time its child spans
cover, and a layer's self time is the sum over its spans. Spans are folded
into per-name totals as they close, so memory stays flat however many calls
a run makes. The inclusive seconds of a name count a recursive call twice;
no target calls itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

# "module.attribute" in the module that defines it; the module is the layer.
TARGETS = (
    "cli.main",
    "codes.resolve_code",
    "codes.goodform_conditions",
    "codes.complement_reduce",
    "virasoro.graded_dimensions",
    "virasoro.irreducible_basis",
    "virasoro.reduce_vector",
    "virasoro.apply_mode",
    "virasoro.shapovalov_gram",
    "intmat.frac_det",
    "intmat.frac_solve",
    "intmat.frac_inverse",
    "intmat.hnf",
    "intmat.hnf_solve",
    "intmat.det_bareiss",
    "intmat.RowSpanSolver.__init__",
    "intmat.RowSpanSolver.solve",
    "intmat.RowSpanSolver.kernel",
    "tensor.lt_action",
    "tensor.apply_factor_mode",
    "tensor.dimension_at_level",
    "tensor.commutator_symbolic",
    "lattices.lattice_at_level",
    "lattices.spanning_monomials",
    "lattices.evaluate_monomial",
    "lattices.gram_matrix",
    "lattices.graded_dual",
    "lattices.contains",
    "lattices.compare",
    "lattices.eigenvalue_table",
    "lattices.admissible_weights",
    "intertwining.build_correlation",
    "intertwining.check_well_defined",
    "intertwining.integrality_verdict",
    "intertwining.CorrelationFunctional.vector_multiplier",
)
LAYERS = tuple(dict.fromkeys(target.split(".", 1)[0] for target in TARGETS))


class Recorder:
    """Span stack plus per-name and per-layer totals."""

    def __init__(self):
        self.stack: list[list] = []  # [name, layer, start, covered by children]
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter[str] = Counter()
        self.hook_errors: set[str] = set()

    def open(self, name: str, layer: str, now: float):
        self.stack.append([name, layer, now, 0.0])

    def close(self, now: float) -> float:
        name, layer, start, covered = self.stack.pop()
        duration = now - start
        self.self_s[layer] += duration - covered
        self.calls[name] += 1
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][3] += duration
        return duration

    def exclude(self, seconds: float):
        """Take time spent by the tracer itself out of the enclosing span."""
        if self.stack:
            self.stack[-1][3] += seconds

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def add(self, key: str, value: float):
        self.counts[key] += value

    def peak(self, key: str, value: float):
        self.counts[key] = max(self.counts[key], value)


def _bits(rows) -> int:
    return max((abs(int(x)).bit_length() for row in rows for x in row), default=0)


def _on_hnf(rec: Recorder, args, result):
    rows = args[0]
    rec.peak("hnf_rows_max", len(rows))
    rec.peak("hnf_cols_max", len(rows[0]) if rows else 0)
    rec.peak("hnf_bits_in_max", _bits(rows))
    rec.peak("hnf_bits_out_max", _bits(result))
    if rec.inside("lattices.lattice_at_level"):
        rec.add("generators", len(rows))
        rec.add("rank", len(result))


def _on_lt_action(rec: Recorder, args, result):
    v = args[2]
    rec.add("terms_in", len(v.terms))
    rec.add("expansion_lookups", len(v.terms) * v.weights.n)
    rec.add("terms_out", len(result.terms))


HOOKS = {
    "intmat.hnf": _on_hnf,
    "intmat.frac_det": lambda rec, args, _: rec.peak("frac_det_n_max", len(args[0])),
    "intmat.RowSpanSolver.__init__":
        lambda rec, args, _: rec.peak("rowspan_rows_max", len(args[1])),
    "tensor.lt_action": _on_lt_action,
}


def _wrapper(rec: Recorder, name: str, orig, hook):
    layer = name.split(".", 1)[0]
    clock = time.perf_counter

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        rec.open(name, layer, clock())
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(clock())
        if hook is not None:
            start = clock()
            try:
                hook(rec, args, result)
            except (AttributeError, TypeError, IndexError, ValueError):
                rec.hook_errors.add(name)
            rec.exclude(clock() - start)
        return result

    return traced


def install(rec: Recorder, package: str = "isingforms"):
    """Wrap every target under each of its bindings.

    Returns (restore list, absent target names). A target missing from the
    package is reported absent; nothing else changes for it.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    restore, absent = [], []
    for name in TARGETS:
        module_name, _, attr = name.partition(".")
        try:
            owner = importlib.import_module(f"{package}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf]
        except (ImportError, AttributeError, KeyError):
            absent.append(name)
            continue
        wrapped = _wrapper(rec, name, orig, HOOKS.get(name))
        if path:  # a method: the class is the only binding
            restore.append((owner, leaf, orig))
            setattr(owner, leaf, wrapped)
            continue
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is orig:
                    restore.append((module, binding, orig))
                    setattr(module, binding, wrapped)
    return restore, absent


def uninstall(restore):
    for owner, binding, orig in reversed(restore):
        setattr(owner, binding, orig)


def metrics(rec: Recorder, root_s: float, absent) -> dict[str, float]:
    """The per-layer metrics of one traced run (report_bytes and overhead
    are measured by the caller)."""
    calls, secs, count = rec.calls, rec.total_s, rec.counts
    lookups, generators = count["expansion_lookups"], count["generators"]
    out = {f"{layer}.self_s": rec.self_s[layer] for layer in LAYERS}
    out.update({
        "virasoro.basis_calls": calls["virasoro.irreducible_basis"],
        "virasoro.basis_s": secs["virasoro.irreducible_basis"],
        "virasoro.reduce_calls": calls["virasoro.reduce_vector"],
        "intmat.frac_det_calls": calls["intmat.frac_det"],
        "intmat.frac_det_s": secs["intmat.frac_det"],
        "intmat.frac_det_n_max": count["frac_det_n_max"],
        "intmat.hnf_calls": calls["intmat.hnf"],
        "intmat.hnf_s": secs["intmat.hnf"],
        "intmat.hnf_rows_max": count["hnf_rows_max"],
        "intmat.hnf_cols_max": count["hnf_cols_max"],
        "intmat.hnf_bits_in_max": count["hnf_bits_in_max"],
        "intmat.hnf_bits_out_max": count["hnf_bits_out_max"],
        "intmat.rowspan_s": secs["intmat.RowSpanSolver.__init__"],
        "intmat.rowspan_rows_max": count["rowspan_rows_max"],
        "intmat.rowspan_solve_calls": calls["intmat.RowSpanSolver.solve"],
        "intmat.frac_inverse_s": secs["intmat.frac_inverse"],
        "intmat.frac_solve_calls": calls["intmat.frac_solve"],
        "intmat.hnf_solve_calls": calls["intmat.hnf_solve"],
        "tensor.lt_action_calls": calls["tensor.lt_action"],
        "tensor.lt_action_s": secs["tensor.lt_action"],
        "tensor.terms_in": count["terms_in"],
        "tensor.terms_out": count["terms_out"],
        "tensor.expansion_miss_ratio":
            calls["virasoro.reduce_vector"] / lookups if lookups else 0.0,
        "lattices.level_calls": calls["lattices.lattice_at_level"],
        "lattices.level_s": secs["lattices.lattice_at_level"],
        "lattices.generators": generators,
        "lattices.rank": count["rank"],
        "lattices.generator_yield": count["rank"] / generators if generators else 0.0,
        "lattices.evaluate_s": secs["lattices.evaluate_monomial"],
        "lattices.gram_s": secs["lattices.gram_matrix"],
        "lattices.dual_s": secs["lattices.graded_dual"],
        "lattices.membership_s": secs["lattices.contains"] + secs["lattices.compare"],
        "intertwining.build_calls": calls["intertwining.build_correlation"],
        "intertwining.build_s": secs["intertwining.build_correlation"],
        "intertwining.well_defined_s": secs["intertwining.check_well_defined"],
        "intertwining.verdict_s": secs["intertwining.integrality_verdict"],
        "intertwining.vector_multiplier_calls":
            calls["intertwining.CorrelationFunctional.vector_multiplier"],
        "codes.goodform_calls": calls["codes.goodform_conditions"],
        "trace.unattributed_s": root_s - sum(rec.self_s.values()),
        "trace.absent": len(absent),
    })
    return out


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    fd, args = int(argv[0]), argv[1:]
    cli = importlib.import_module("isingforms.cli")
    rec = Recorder()
    restore, absent = install(rec)
    try:
        code = cli.main(args)
    finally:
        uninstall(restore)
        sys.stdout.flush()
    root_s = time.perf_counter() - start
    if absent or rec.hook_errors:
        print(f"spans: absent {absent}, hooks failed on {sorted(rec.hook_errors)}",
              file=sys.stderr)
    summary = {"metrics": metrics(rec, root_s, absent), "absent": absent,
               "hook_errors": sorted(rec.hook_errors)}
    with os.fdopen(fd, "w") as out:
        json.dump(summary, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
