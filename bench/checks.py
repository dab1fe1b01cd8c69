"""Output checks that do not trust the program.

Everything here is recomputed from the generated matrices with numpy
(`eigvalsh`, `eigh`, `einsum`) and from the written files read back
with plain `json`. Each function returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VALUE_TOL = 1e-10  # recomputed <mu|sigma|mu>, unit norms
SPECTRUM_TOL = 1e-9  # eigenvalues, brackets, partial traces
DATA_TOL = 1e-12  # written data against c*I - sigma'
ORACLE_SEESAW_TOL = 1e-4
ORACLE_SEESAW_RESTARTS = 32


def close(got: float, want: float, tol: float, what: str) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, want {want!r} (tolerance {tol})"]


def _decode(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def partial_transpose(rho: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    n = len(dims)
    t = rho.reshape(dims + dims).swapaxes(k, n + k)
    return t.reshape(rho.shape)


def trace_last(rho: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Partial trace over the last party."""
    keep = int(np.prod(dims[:-1]))
    d = dims[-1]
    return np.einsum("iaja->ij", rho.reshape(keep, d, keep, d))


def bracket(rho: np.ndarray, dims: tuple[int, ...], mode: str) -> tuple[float, float]:
    """Certified interval for the product extremum that `cbounds --mode`
    reports: the max over product states for "min", the min for "max".

    Diagonal entries are expectations of computational-basis product
    states. Since <a b|s|a b> = <a conj(b)|s^{T_B}|a conj(b)>, the
    extremal eigenvalues of sigma and of each partial transpose bound
    the product extremum from the other side.
    """
    spectra = [np.linalg.eigvalsh(rho)]
    spectra += [np.linalg.eigvalsh(partial_transpose(rho, dims, k)) for k in range(len(dims))]
    diag = rho.diagonal().real
    if mode == "min":
        return float(diag.max()), float(min(s[-1] for s in spectra))
    return float(max(s[0] for s in spectra)), float(diag.min())


def certified_c(rho: np.ndarray, dims: tuple[int, ...]) -> float:
    """Certified upper bound on the max product expectation: an offset
    at which c*I - sigma has no negative product expectation."""
    return bracket(rho, dims, "min")[1]


def in_bracket(value: float, rho, dims, mode: str, what: str = "value") -> list[str]:
    lo, hi = bracket(rho, dims, mode)
    if lo - SPECTRUM_TOL <= value <= hi + SPECTRUM_TOL:
        return []
    return [f"{what} {value!r} on {dims} --mode {mode} outside certified [{lo!r}, {hi!r}]"]


def cbounds_report(rep: dict, rho: np.ndarray, dims: tuple[int, ...], mode: str) -> list[str]:
    """Value is the expectation of the reported extremizer, whose factors
    have unit norm; the reported extremal eigenvalues match numpy."""
    res = rep["results"]
    factors = [_decode(f) for f in res["extremizer"]]
    errors = []
    for k, f in enumerate(factors):
        errors += close(float(np.linalg.norm(f)), 1.0, VALUE_TOL, f"{dims} factor {k} norm")
    mu = factors[0]
    for f in factors[1:]:
        mu = np.kron(mu, f)
    value = float(np.real(mu.conj() @ rho @ mu))
    errors += close(res["value"], value, VALUE_TOL, f"{dims} --mode {mode} value vs <mu|sigma|mu>")
    vals = np.linalg.eigvalsh(rho)
    errors += close(res["lambda_min"], float(vals[0]), SPECTRUM_TOL, f"{dims} lambda_min")
    errors += close(res["lambda_max"], float(vals[-1]), SPECTRUM_TOL, f"{dims} lambda_max")
    return errors


def _contract_except(t: np.ndarray, factors: list[np.ndarray], k: int) -> np.ndarray:
    n = len(factors)
    rows, cols = "abcdefgh"[:n], "ijklmnop"[:n]
    subs, ops = [rows + cols], [t]
    for j, f in enumerate(factors):
        if j != k:
            subs += [rows[j], cols[j]]
            ops += [f.conj(), f]
    out = np.einsum(",".join(subs) + "->" + rows[k] + cols[k], *ops)
    return 0.5 * (out + out.conj().T)


def seesaw(rho: np.ndarray, dims: tuple[int, ...], mode: str, restarts: int, seed: int = 0) -> float:
    """Reference see-saw with numpy `eigh`: the max product expectation
    for mode "min", the min for "max" (the `cbounds` convention)."""
    t = rho.reshape(dims + dims)
    pick = -1 if mode == "min" else 0
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        factors = []
        for d in dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(v / np.linalg.norm(v))
        value = None
        for _ in range(500):
            prev = value
            for k in range(len(dims)):
                vals, vecs = np.linalg.eigh(_contract_except(t, factors, k))
                factors[k] = vecs[:, pick]
                value = float(vals[pick])
            if prev is not None and abs(value - prev) < 1e-13:
                break
        if best is None or (value > best if mode == "min" else value < best):
            best = value
    return best


def oracle_value(value, rho: np.ndarray, dims: tuple[int, ...], mode: str) -> list[str]:
    """The oracle value sits in the certified bracket and matches a
    32-restart reference see-saw."""
    if value is None:
        return [f"{dims} --mode {mode}: oracle skipped"]
    errors = in_bracket(value, rho, dims, mode, "oracle")
    ref = seesaw(rho, dims, mode, ORACLE_SEESAW_RESTARTS)
    return errors + close(value, ref, ORACLE_SEESAW_TOL, f"{dims} --mode {mode} oracle vs see-saw")


def _read_witness(path: Path) -> tuple[float, tuple[int, ...], np.ndarray, np.ndarray]:
    raw = json.loads(Path(path).read_text())
    return float(raw["c"]), tuple(raw["dims"]), _decode(raw["data"]), _decode(raw["sigma"])


def witness_file(path: Path, c: float, sigma: np.ndarray) -> list[str]:
    """The written witness keeps c and sigma, and its data is c*I - sigma."""
    got_c, dims, data, sig = _read_witness(path)
    errors = [] if got_c == c else [f"{path.name}: c {got_c!r}, want {c!r}"]
    if sig.shape != sigma.shape or np.abs(sig - sigma).max() > DATA_TOL:
        errors.append(f"{path.name}: sigma differs from the input state")
    return errors + _data_matches(path.name, got_c, data, sig)


def _data_matches(name: str, c: float, data: np.ndarray, sig: np.ndarray) -> list[str]:
    defect = float(np.abs(data - (c * np.eye(sig.shape[0]) - sig)).max())
    return [] if defect <= DATA_TOL else [f"{name}: data deviates from c*I - sigma by {defect:.3e}"]


def _extended(path: Path, c: float, dims: tuple[int, ...], want_reduced: np.ndarray) -> tuple[list[str], np.ndarray]:
    got_c, ext_dims, data, sig = _read_witness(path)
    errors = [] if got_c == c else [f"{path.name}: c changed from {c!r} to {got_c!r}"]
    errors += _data_matches(path.name, got_c, data, sig)
    if ext_dims[:-1] != tuple(dims):
        return errors + [f"{path.name}: dims {ext_dims} do not extend {dims}"], data
    defect = float(np.abs(trace_last(sig, ext_dims) - want_reduced).max())
    if defect > SPECTRUM_TOL:
        errors.append(f"{path.name}: tracing out the new party is off by {defect:.3e}")
    return errors, data


def purified_file(path: Path, c: float, sigma: np.ndarray, dims: tuple[int, ...]) -> list[str]:
    """Tracing out the purifying party gives back sigma, and the smallest
    eigenvalue of c*I - sigma' is c - 1."""
    errors, data = _extended(path, c, dims, sigma)
    lam_min = float(np.linalg.eigvalsh(data)[0])
    return errors + close(lam_min, c - 1.0, SPECTRUM_TOL, f"{path.name} lambda_min")


def partial_file(path: Path, c: float, sigma: np.ndarray, dims: tuple[int, ...], selected: int) -> list[str]:
    """Tracing out the ancilla gives the top `selected` eigenpairs of
    sigma, sum_sel lambda_i |e_i><e_i|."""
    vals, vecs = np.linalg.eigh(sigma)
    top = vecs[:, -selected:]
    want = (top * vals[-selected:]) @ top.conj().T
    return _extended(path, c, dims, want)[0]


def verify_report(rep: dict, c: float) -> list[str]:
    """witness-verify of the purified witness: a witness with margin
    1 - c and no product expectation below -1e-8."""
    res = rep["results"]
    errors = [] if res["is_witness"] is True else ["witness-verify: is_witness is not true"]
    errors += close(res["witnessing_margin"], 1.0 - c, SPECTRUM_TOL, "witness-verify margin")
    if not res["min_product_expectation"] >= -1e-8:
        errors.append(f"witness-verify: min product expectation {res['min_product_expectation']!r}")
    return errors
