"""Spans around fermigap's public functions, recorded from outside the package.

``Tracer.install`` replaces each function named in ``TRACED`` by a wrapper at
every module attribute it is bound to (``quadform.ground_gap`` is also
``ensembles.ground_gap``), so calls between fermigap's own modules are seen
too.  Spans are (name, start, end, parent index) lists kept in memory; the
caller writes them out when the run ends.  ``layer_metrics`` turns spans and
counters into the per-layer metrics and needs no fermigap import.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

TRACED = {
    "cli": ("main",),
    "io": ("load_pair_or_structured", "pair_from_dict"),
    "lattice": ("structured_gap_report", "interpolated_c_root", "g_eigenvalues"),
    "quadform": ("ground_gap", "interpolate", "first_symmetry_violation",
                 "symmetrize_split", "gap_report_from_singular_values",
                 "lieb_decompose", "subset_sum_spectrum"),
    "ensembles": ("sample_pair", "haar_orthogonal"),
    "spinrep": ("dense_hamiltonian", "dense_spectrum_oracle", "fcr_check",
                "jw_operators", "fermionic_assembly"),
}

# Counts taken at a traced call: function -> (counter, amount from positional args).
COUNTERS = {
    "io.load_pair_or_structured": ("io.bytes_in", lambda args: os.path.getsize(args[0])),
    "lattice.structured_gap_report": ("lattice.fft_points", lambda args: args[0].n),
    "spinrep.dense_hamiltonian": ("spinrep.dense_dim_sum", lambda args: 2 ** args[0].n),
    "spinrep.fermionic_assembly": ("spinrep.dense_dim_sum", lambda args: args[1].dimension),
}

# cli.main is the root span, so its self time is the CLI layer's own work.
RENAMED = {"cli.main.self_s": "cli.self_s"}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_names() -> list[str]:
    names = []
    for name in traced_names():
        for suffix in ("s", "self_s", "calls"):
            key = f"{name}.{suffix}"
            names.append(RENAMED.get(key, key))
    names += sorted({counter for counter, _ in COUNTERS.values()})
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](args)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each fermigap attribute bound to it."""
        wrappers = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"fermigap.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = self.wrap(f"{mod}.{fn}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fermigap" or mod_name.startswith("fermigap."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counters) -> dict[str, float]:
    """Total (``.s``), self (``.self_s``) time and ``.calls`` per traced name.

    A span inside another span of the same name adds to ``.calls`` and
    ``.self_s`` but not again to ``.s``.
    """
    metrics = dict.fromkeys(layer_metric_names(), 0.0)
    selfs = self_times(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        nested = False
        while parent >= 0 and not nested:
            nested = spans[parent][0] == name
            parent = spans[parent][3]
        if not nested:
            metrics[f"{name}.s"] += end - start
        key = f"{name}.self_s"
        metrics[RENAMED.get(key, key)] += selfs[i]
        metrics[f"{name}.calls"] += 1
    for counter, amount in counters.items():
        metrics[counter] += amount
    return metrics
