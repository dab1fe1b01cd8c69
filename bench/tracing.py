"""Spans around the calls into each module's entry points.

The program itself is not instrumented. `Tracer.install` rebinds the
entry-point names that `cli` and the other modules look up at call
time (for example `cli.parse_matrix_file`, `witness._canonical_eig`)
to wrappers that record a span: name, start, end, parent span and
one integer attribute. Spans stay in memory until the run ends. A layer's
self time is its span time minus the time of its direct child spans;
the calls are synchronous, so children never overlap.

A missing entry point is skipped, and every metric that depends on it
is left out of the result instead of crashing the run.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import grid_points

SMALL_EIG_DIM = 16
MB = float(1 << 20)

EXTEND_FUNCTIONS = (
    "purify_extend", "purify_extend_n", "partial_purify_extend",
    "mixed_tensor_extend", "identity_extend", "pure_tails_extend",
)


def _targets(wf_modules) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped entry point."""
    cli, linalg, qstate, witness, oracle = (
        wf_modules[m] for m in ("cli", "linalg", "qstate", "witness", "oracle")
    )
    out = [
        (cli, "parse_matrix_file", "fileio.parse"),
        (cli, "write_matrix_file", "fileio.write"),
        (getattr(qstate, "DensityMatrix", None), "__post_init__", "qstate.density"),
        (cli, "make_witness", "witness.make"),
        (cli, "verify_witness", "witness.verify"),
        (cli, "grid_product_extremum", "oracle.scan"),
    ]
    out += [(m, "_canonical_eig", "linalg.eig") for m in (linalg, qstate, witness, oracle)]
    out += [
        (m, f, "witness.seesaw")
        for m in (cli, witness)
        for f in ("max_product_expectation", "min_product_expectation")
    ]
    out += [(cli, f, "extend") for f in EXTEND_FUNCTIONS]
    return out


def _attr(name: str, args, result) -> int:
    """The one number a span carries for its layer's counters."""
    if name == "linalg.eig":
        return args[0].shape[0]
    if name == "fileio.parse":
        return os.path.getsize(args[0])
    if name == "fileio.write":
        return os.path.getsize(args[1])
    if name == "witness.seesaw":
        return result.restarts_used
    if name == "oracle.scan":
        resolution = args[2] if len(args) > 2 else 256
        return grid_points(tuple(args[0].dims), int(resolution))
    return 0


class Tracer:
    """Spans in flat arrays: a list of names (strings) and typed arrays
    of start, end, parent index (-1 at the top) and one integer
    attribute. Holding a few hundred thousand spans as lists or dicts
    would make the garbage collector rescan them all, which cost a fifth
    of the throughput of a traced cbounds-seesaw run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("q")
        self._stack: list[int] = []
        self.installed: set[str] = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span."""
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        self.value[idx] = _attr(name, args, result)
        return result

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, wf_modules) -> None:
        """Rebind every entry point that exists; the names found go to
        `installed`, so missing layers can be reported as absent."""
        for owner, attr, name in _targets(wf_modules):
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, attr, self._wrap(name, fn))
            self.installed.add(name)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        n = len(self.names)
        names = np.array(self.names, dtype=object)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        value = np.frombuffer(self.value, dtype=np.int64)
        nested = parent >= 0
        self_dur = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

        def pick(name):
            return names == name

        def count(mask):
            return int(mask.sum())

        out: dict[str, tuple[float, str]] = {}
        if "linalg.eig" in self.installed:
            eig = pick("linalg.eig")
            for size, mask in (("small", eig & (value <= SMALL_EIG_DIM)), ("large", eig & (value > SMALL_EIG_DIM))):
                out[f"linalg.eig_{size}_s"] = (float(dur[mask].sum()), "s")
                out[f"linalg.eig_{size}_calls"] = (count(mask), "count")
        if "witness.seesaw" in self.installed:
            seesaw = pick("witness.seesaw")
            restarts = int(value[seesaw].sum())
            out["witness.seesaw_s"] = (float(self_dur[seesaw].sum()), "s")
            out["witness.seesaw_calls"] = (count(seesaw), "count")
            out["witness.restarts"] = (restarts, "count")
            if "linalg.eig" in self.installed:
                inside = pick("linalg.eig") & nested & seesaw[np.maximum(parent, 0)]
                out["witness.eig_per_restart"] = (count(inside) / restarts if restarts else 0.0, "count")
        if "witness.verify" in self.installed:
            out["witness.verify_s"] = (float(dur[pick("witness.verify")].sum()), "s")
        if "qstate.density" in self.installed:
            density = pick("qstate.density")
            out["qstate.density_s"] = (float(self_dur[density].sum()), "s")
            out["qstate.density_calls"] = (count(density), "count")
        for op, noun in (("parse", "read"), ("write", "written")):
            if f"fileio.{op}" in self.installed:
                mask = pick(f"fileio.{op}")
                out[f"fileio.{op}_s"] = (float(self_dur[mask].sum()), "s")
                out[f"fileio.{op}_calls"] = (count(mask), "count")
                out[f"fileio.{noun}_mb"] = (float(value[mask].sum()) / MB, "MB")
        if "extend" in self.installed:
            ext = pick("extend")
            out["extend.self_s"] = (float(self_dur[ext].sum()), "s")
            out["extend.calls"] = (count(ext), "count")
        if "oracle.scan" in self.installed:
            scan = pick("oracle.scan")
            points = int(value[scan].sum())
            seconds = float(dur[scan].sum())
            out["oracle.scan_s"] = (seconds, "s")
            out["oracle.grid_points"] = (points, "count")
            out["oracle.points_per_s"] = (points / seconds if seconds else 0.0, "1/s")
        out["cli.self_s"] = (float(self_dur[pick("cli")].sum()), "s")
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent, attribute."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.start, self.end, self.parent, self.value):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
