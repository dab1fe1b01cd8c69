"""Seeded inputs and fixed CLI job lists for the three workloads.

Each builder generates its density matrices with numpy from the run's
seed, validates and writes them through the program's own
`DensityMatrix` and `write_matrix_file` (so set-up pays the same
validation a user's first command does), and returns a `Plan`: the
ordered CLI argument lists of one pass, and a function that checks the
reports and files of a finished pass with `checks`.

Each state is a fixed template, drawn once from TEMPLATE_SEED, seen in
a local frame U_1 (x) ... (x) U_n drawn from the run's seed. Product
extrema, spectra and partial-transpose spectra are invariant under
local unitaries, and so is the distribution of the see-saw's Gaussian
random starts, so every seed poses the same problems in another basis:
the work a pass does varies with the seed only through those starts.
With fresh random states per seed, a 26-job cbounds pass took from 6
to 12 s; with fixed templates the same pass made 41-42 thousand
eigensolves on every seed. Every state has its own generators, seeded from (seed, workload, state
index), so adding a state never changes the others.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SEESAW_DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (2, 2, 2, 2))
EXTEND_DIMS = ((2, 2), (2, 4), (3, 3), (4, 4))
ORACLE_CASES = (((2, 2), 256), ((2, 3), 256), ((2, 4), 256), ((3, 3), 32), ((2, 2, 2), 32))

# Weight of the entangled pure component in the extend-purify templates.
# At 0.7 the certified product bound c stays below lambda_max(sigma)
# (set-up checks it), so `c*I - sigma` is a witness.
ENTANGLED_WEIGHT = 0.7
# Every extend-purify command runs one see-saw restart, so the cost falls
# on the large eigensolves, the projectors and the file I/O, not the
# see-saw. c comes from the certified bound, not from witness-make's
# one-sided see-saw check.
EXTEND_RESTARTS = "1"
ORACLE_RESTARTS = "1"
ISOTROPIC_Q = 0.2
TEMPLATE_SEED = 1405
# Templates per structure (and rank). With one, a run's job times rested
# on a few distinct jobs and moved with their see-saw starts.
TEMPLATES = {"cbounds-seesaw": 3, "extend-purify": 4, "oracle-grid": 3}


@dataclass
class Plan:
    """One pass: CLI argument lists and the check of their reports."""

    jobs: list[list[str]]
    check: Callable[[list[dict]], list[str]]


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, tag, index]))


def local_frame(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """A random product unitary U_1 (x) ... (x) U_n."""
    u = np.ones((1, 1))
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        u = np.kron(u, q)
    return u


def _state(workload: str, seed: int, index: int, dims: tuple[int, ...], template) -> np.ndarray:
    """Template `index` of a workload, rotated into the seed's local frame."""
    rho = template(_rng(TEMPLATE_SEED, workload, index))
    u = local_frame(_rng(seed, workload, index), dims)
    rho = u @ rho @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def ginibre_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Random density matrix G G^+ / tr, G a dim x rank complex Gaussian."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def entangled_state(rng: np.random.Generator, dims: tuple[int, int]) -> np.ndarray:
    """ENTANGLED_WEIGHT of an entangled pure state with Schmidt weights
    proportional to 1, 1/2, 1/4, ..., mixed with a full-rank Ginibre
    state. Equal weights would give a nearly flat ridge of product
    maximisers, on which see-saw restarts took 50-158 sweeps instead of
    about 20, with a cost that varied with the seed."""
    da, db = dims
    k = min(da, db)
    weights = 0.5 ** np.arange(k)
    psi = np.zeros(da * db)
    psi[[i * db + i for i in range(k)]] = np.sqrt(weights / weights.sum())
    pure = np.outer(psi, psi)
    return ENTANGLED_WEIGHT * pure + (1.0 - ENTANGLED_WEIGHT) * ginibre_state(rng, da * db, da * db)


def isotropic_state(q: float) -> np.ndarray:
    """q |Phi+><Phi+| + (1 - q) I/4 on two qubits."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return q * np.outer(phi, phi) + (1.0 - q) * np.eye(4) / 4.0


def _write_density(wf, dims: tuple[int, ...], rho: np.ndarray, path: Path) -> None:
    state = wf.DensityMatrix(wf.ComplexMatrix(dims, rho), normalized=True)
    wf.write_matrix_file(state, path)


def _tag(dims: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in dims)


def build_cbounds_seesaw(wf, seed: int, work: Path) -> Plan:
    """Both see-saw modes at the default 32 restarts on full-rank and
    rank-2 states of every structure, plus isotropic(0.2)."""
    states = []
    for dims in SEESAW_DIMS:
        dim = int(np.prod(dims))
        for rank in (dim, 2):
            for _ in range(TEMPLATES["cbounds-seesaw"]):
                rho = _state("cbounds-seesaw", seed, len(states), dims,
                             lambda rng: ginibre_state(rng, dim, rank))
                states.append((dims, rho))
    states.append(((2, 2), isotropic_state(ISOTROPIC_Q)))
    jobs, cases = [], []
    for n, (dims, rho) in enumerate(states):
        path = work / f"sigma{n}_{_tag(dims)}.json"
        _write_density(wf, dims, rho, path)
        for mode in ("min", "max"):
            jobs.append(["cbounds", str(path), "--mode", mode, "--seed", str(seed)])
            cases.append((dims, rho, mode, n == len(states) - 1))

    def check(reports: list[dict]) -> list[str]:
        errors = []
        for (dims, rho, mode, iso), rep in zip(cases, reports):
            errors += checks.cbounds_report(rep, rho, dims, mode)
            errors += checks.in_bracket(rep["results"]["value"], rho, dims, mode)
            if iso and mode == "min":
                errors += checks.close(rep["results"]["value"], 0.3, 1e-9, "isotropic(0.2) c")
        return errors

    return Plan(jobs, check)


def build_extend_purify(wf, seed: int, work: Path) -> Plan:
    """Per state: strict witness-make at the certified c, purify and
    partial extensions, and see-saw verification of the purified file."""
    jobs, cases = [], []
    states = [dims for dims in EXTEND_DIMS for _ in range(TEMPLATES["extend-purify"])]
    for i, dims in enumerate(states):
        rho = _state("extend-purify", seed, i, dims, lambda rng: entangled_state(rng, dims))
        c = checks.certified_c(rho, dims)
        lam_max = float(np.linalg.eigvalsh(rho)[-1])
        if not c < lam_max - 1e-3:
            raise RuntimeError(f"certified c={c} not below lambda_max={lam_max} on {dims}")
        tag = f"{i}_{_tag(dims)}"
        sigma, w, wp, wq = (work / f"{p}_{tag}.json" for p in ("sigma", "w", "wpure", "wpart"))
        _write_density(wf, dims, rho, sigma)
        dim = rho.shape[0]
        selection = f"{dim - 1}:0,{dim - 2}:1"
        jobs += [
            ["witness-make", str(sigma), "--form", "c_minus_sigma", "--c", repr(c),
             "-o", str(w), "--restarts", EXTEND_RESTARTS, "--seed", str(seed)],
            ["extend", str(w), "--method", "purify", "-o", str(wp),
             "--restarts", EXTEND_RESTARTS, "--seed", str(seed)],
            ["extend", str(w), "--method", "partial", "--selection", selection,
             "--ancilla-dim", "2", "-o", str(wq), "--restarts", EXTEND_RESTARTS, "--seed", str(seed)],
            ["witness-verify", str(wp), "--restarts", EXTEND_RESTARTS, "--seed", str(seed)],
        ]
        cases.append((dims, rho, c, w, wp, wq))

    def check(reports: list[dict]) -> list[str]:
        errors = []
        for k, (dims, rho, c, w, wp, wq) in enumerate(cases):
            _, purify, partial, verify = reports[4 * k: 4 * k + 4]
            errors += checks.witness_file(w, c, rho)
            errors += checks.purified_file(wp, c, rho, dims)
            errors += checks.partial_file(wq, c, rho, dims, 2)
            errors += checks.verify_report(verify, c)
            for rep in (purify, partial):
                if rep["results"]["verify"]["is_witness"] is not True:
                    errors.append(f"extend {rep['results']['method']} on {dims}: not a witness")
        return errors

    return Plan(jobs, check)


def build_oracle_grid(wf, seed: int, work: Path) -> Plan:
    """`cbounds --oracle` in both modes, one see-saw restart, at the
    largest resolution each structure runs at today."""
    jobs, cases = [], []
    states = [case for case in ORACLE_CASES for _ in range(TEMPLATES["oracle-grid"])]
    for i, (dims, resolution) in enumerate(states):
        dim = int(np.prod(dims))
        rho = _state("oracle-grid", seed, i, dims, lambda rng: ginibre_state(rng, dim, dim))
        path = work / f"sigma{i}_{_tag(dims)}.json"
        _write_density(wf, dims, rho, path)
        for mode in ("min", "max"):
            jobs.append(["cbounds", str(path), "--mode", mode, "--oracle",
                         "--restarts", ORACLE_RESTARTS, "--resolution", str(resolution),
                         "--seed", str(seed)])
            cases.append((dims, rho, mode))

    def check(reports: list[dict]) -> list[str]:
        errors = []
        for (dims, rho, mode), rep in zip(cases, reports):
            errors += checks.cbounds_report(rep, rho, dims, mode)
            errors += checks.oracle_value(rep["results"]["oracle"], rho, dims, mode)
        return errors

    return Plan(jobs, check)


BUILDERS = {
    "cbounds-seesaw": build_cbounds_seesaw,
    "extend-purify": build_extend_purify,
    "oracle-grid": build_oracle_grid,
}


def grid_points(dims: tuple[int, ...], resolution: int) -> int:
    """Product states the oracle scans: the grid of every party but the
    largest (the last of equal largest ones), which is solved exactly."""
    r, h = resolution, resolution // 2
    per_dim = {1: 1, 2: (r + 1) * r, 3: (h + 1) ** 2 * r**2, 4: (h + 1) ** 3 * r**3}
    exact = max(range(len(dims)), key=lambda k: (dims[k], k))
    out = 1
    for k, d in enumerate(dims):
        if k != exact:
            out *= per_dim[d]
    return out
