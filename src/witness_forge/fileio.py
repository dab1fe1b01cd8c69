"""Canonical JSON interchange for matrices, states, and witnesses.

Format (version "1"): an object with `version`, `kind` in {density,
pure, hermitian, witness}, `dims`, and `data` as a row-major nested
array whose complex entries are two-element [re, im] arrays. Witness
files additionally carry `form`, `c`, the `sigma` entries, and the
`normalized` flag of sigma; `data` holds the materialized witness
matrix and is checked against (form, c, sigma) on parse.

The writer is canonical: keys sorted, compact separators, every float
rendered with 17 significant digits, trailing newline. Writing a parsed
canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import ComplexMatrix, ComplexVector
from .qstate import DensityMatrix, PureState
from .witness import Witness, WitnessForm

FORMAT_VERSION = "1"
KINDS = ("density", "pure", "hermitian", "witness")
_DATA_CONSISTENCY_TOL = 1e-12


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ParseError(f"non-finite number {x!r} cannot be serialized")
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators,
    floats at 17 significant digits. Ends without a newline."""
    out: list[str] = []
    _dump(obj, out)
    return "".join(out)


def _dump(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ParseError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _dump(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    else:
        raise ParseError(f"cannot serialize {type(obj).__name__}")


def _encode_entry(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _encode_matrix(arr: np.ndarray) -> list:
    return [[_encode_entry(z) for z in row] for row in arr]


def _encode_vector(vec: np.ndarray) -> list:
    return [_encode_entry(z) for z in vec]


def _decode_entry(raw, where: str) -> complex:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        raise ParseError(f"{where}: complex entry must be a [re, im] pair, got {raw!r}")
    re, im = float(raw[0]), float(raw[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"{where}: non-finite entry {raw!r}")
    return complex(re, im)


def _decode_matrix(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{where}: row {i} must have {dim} entries")
        for j, cell in enumerate(row):
            out[i, j] = _decode_entry(cell, f"{where}[{i}][{j}]")
    return out


def _decode_vector(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{where}: expected {dim} entries")
    out = np.empty(dim, dtype=np.complex128)
    for i, cell in enumerate(raw):
        out[i] = _decode_entry(cell, f"{where}[{i}]")
    return out


def encode_matrix_obj(obj) -> dict:
    """Build the JSON document dict for a supported object."""
    if isinstance(obj, Witness):
        kind, body = "witness", {
            "data": _encode_matrix(obj.matrix().mat),
            "form": obj.form.value,
            "c": float(obj.c),
            "sigma": _encode_matrix(obj.sigma.mat.mat),
            "normalized": bool(obj.sigma.normalized),
        }
    elif isinstance(obj, DensityMatrix):
        kind, body = "density", {
            "data": _encode_matrix(obj.mat.mat),
            "normalized": bool(obj.normalized),
        }
    elif isinstance(obj, PureState):
        kind, body = "pure", {
            "data": _encode_vector(obj.vec.vec),
            "normalized": bool(obj.normalized),
        }
    elif isinstance(obj, ComplexMatrix):
        kind, body = "hermitian", {"data": _encode_matrix(obj.mat)}
    else:
        raise ParseError(f"cannot write object of type {type(obj).__name__}")
    return {"version": FORMAT_VERSION, "kind": kind, "dims": list(obj.dims), **body}


def parse_matrix_obj(raw) -> Witness | DensityMatrix | PureState | ComplexMatrix:
    """Decode a parsed JSON document. Structural problems raise
    ParseError; semantic validation (Hermiticity, positivity, norms) is
    delegated to the constructed objects."""
    if not isinstance(raw, dict):
        raise ParseError("matrix file must be a JSON object")
    if raw.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported version {raw.get('version')!r}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    dims_raw = raw.get("dims")
    if (
        not isinstance(dims_raw, list)
        or not dims_raw
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims_raw)
    ):
        raise ParseError(f"dims must be a list of positive integers, got {dims_raw!r}")
    dims = tuple(dims_raw)
    dim = math.prod(dims)

    if kind == "pure":
        vec = _decode_vector(raw.get("data"), dim, "data")
        return PureState(ComplexVector(dims, vec), normalized=_get_normalized(raw))

    data = _decode_matrix(raw.get("data"), dim, "data")
    if kind == "hermitian":
        return ComplexMatrix(dims, data)
    if kind == "density":
        return DensityMatrix(ComplexMatrix(dims, data), normalized=_get_normalized(raw))

    form_raw = raw.get("form")
    try:
        form = WitnessForm(form_raw)
    except ValueError:
        raise ParseError(f"unknown witness form {form_raw!r}") from None
    c_raw = raw.get("c")
    if not isinstance(c_raw, (int, float)) or isinstance(c_raw, bool) or not math.isfinite(c_raw):
        raise ParseError(f"c must be a finite number, got {c_raw!r}")
    sigma_arr = _decode_matrix(raw.get("sigma"), dim, "sigma")
    sigma = DensityMatrix(ComplexMatrix(dims, sigma_arr), normalized=_get_normalized(raw))
    w = Witness(form, float(c_raw), sigma)
    defect = float(np.abs(w.matrix().mat - data).max())
    if defect > _DATA_CONSISTENCY_TOL:
        raise ParseError(
            f"witness data inconsistent with (form, c, sigma): max deviation {defect:.3e}"
        )
    return w


def _get_normalized(raw) -> bool:
    val = raw.get("normalized", True)
    if not isinstance(val, bool):
        raise ParseError(f"normalized must be a boolean, got {val!r}")
    return val


def parse_matrix_file(path: str | Path) -> Witness | DensityMatrix | PureState | ComplexMatrix:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    return parse_matrix_obj(raw)


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON constant {name!r} not allowed")


def matrix_file_text(obj) -> str:
    return dumps_canonical(encode_matrix_obj(obj)) + "\n"


def write_matrix_file(obj, path: str | Path) -> None:
    Path(path).write_text(matrix_file_text(obj))
