"""Canonical JSON interchange for matrices, states, and witnesses.

Format (version "1"): an object with `version`, `kind` in {density,
pure, hermitian, witness}, `dims`, and `data` as a row-major nested
array whose complex entries are two-element [re, im] arrays. Witness
files additionally carry `form`, `c`, the `sigma` entries, and the
`normalized` flag of sigma; `data` holds the materialized witness
matrix and is checked against (form, c, sigma) on parse.

The document dict holds matrices and vectors as complex ndarrays, which
one codec writes and reads whole. The writer is canonical: keys sorted,
compact separators, every float at 17 significant digits, trailing
newline; writing a parsed canonical file reproduces it byte for byte.
The float parts of all the arrays of a document are rendered in one
pass: each distinct magnitude is formatted once with `%.17g` (the
mirrored entries of a Hermitian matrix share their magnitudes, and a
witness's `data` and `sigma` share their off-diagonal ones), and a part
whose sign bit is set gets a `-` in front, as printf writes it (so -0.0
is `-0`, which the reader reads back as -0.0). The results fill a
template of [re, im] pairs nested once per axis, one row of a matrix at
a time, and a file is written row by row.
The reader decodes each regular array of [re, im] pairs of numbers
under `data` or `sigma` inside its one JSON pass, straight into float64:
the array's brackets and commas must spell the template of its shape,
and its numbers are read as one flat JSON list, so no Python list is
made per entry. It tries this only on a value of the top object whose
key text, read back from the colon before it, is `"data"` or `"sigma"`
(`_ARRAY_KEY`). Every other value is read by json's own scanner, to the
same values: the header arrays, a key spelled another way (an escape,
wide spacing), and an array whose text does not spell its template or
whose numbers json refuses or float64 cannot hold, which json reads
nested where it stands, raising its own error at the file's true
position. The whole text is read once. The reader
is strict (exact shapes; parts are numbers, not booleans, finite as
float64), and any malformed file raises ParseError. A file whose `dims`
multiply to more than MAX_TOTAL_DIM, the largest size the tool builds,
is refused with ParamOutOfRange after that pass, before any array is
checked or any object built.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import ComplexMatrix, ComplexVector, _require_within_cap
from .qstate import DensityMatrix, PureState
from .witness import Witness, WitnessForm

FORMAT_VERSION = "1"
KINDS = {
    "density": DensityMatrix, "pure": PureState, "hermitian": ComplexMatrix, "witness": Witness,
}
_DATA_CONSISTENCY_TOL = 1e-12
_FLOAT_FORMAT = "%.17g"
_FLOAT_MAX = float(np.finfo(np.float64).max)
_JSON_SPACE = b" \t\n\r"
_NUMBER_CHARS = b"0123456789+-.eE"
_BRACKETS_TO_SPACES = str.maketrans("[]", "  ")
_MAX_AXES = 3  # of an array of numbers in a file: a matrix of [re, im] pairs
# "data" or "sigma" as a key, its opening quote not escaped, then the colon and
# json spaces: how the 32 characters before a value that is read flat end
_ARRAY_KEY = re.compile(r'[^\\]"(?:data|sigma)"[ \t\n\r]*:[ \t\n\r]*\Z')


def kind_of(obj) -> str | None:
    """The file kind whose class `obj` is an instance of, or None."""
    return next((name for name, cls in KINDS.items() if isinstance(obj, cls)), None)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ParseError(f"non-finite number {x!r} cannot be serialized")
    return _FLOAT_FORMAT % x


def _float_parts(arrays: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """The re and im parts of every entry of `arrays`, in order, as a new array."""
    return np.concatenate([a for _, a in arrays], axis=None, dtype=np.complex128).view(np.float64)


def _require_finite(arr: np.ndarray) -> None:
    """Raise the ParseError of `_fmt_float` for the first non-finite part
    of the complex array `arr`, re before im."""
    if not np.isfinite(arr).all():
        parts = _float_parts([(0, arr)])
        _fmt_float(float(parts[np.isfinite(parts).argmin()]))


def dumps_canonical(obj) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators, floats
    at 17 significant digits, a complex ndarray as nested [re, im] pairs
    (other arrays raise ParseError). Ends without a newline."""
    return "".join(_pieces(obj))


def _pieces(obj) -> Iterator[str]:
    """The canonical text of `obj` in pieces, every check already run. The
    arrays are written out as the pieces are taken, a matrix row apiece."""
    out: list[str] = []
    arrays: list[tuple[int, np.ndarray]] = []
    _dump(obj, out, arrays)
    if not arrays:
        return iter(out)
    parts = _float_parts(arrays)
    negative = np.signbit(parts)
    mags, inverse = np.unique(np.abs(parts, out=parts), return_inverse=True)
    text = (",".join([_FLOAT_FORMAT] * mags.size) % tuple(mags.tolist())).split(",")
    cells = np.empty(2 * parts.size, dtype=object)
    cells[0::2] = ""
    cells[0::2][negative] = "-"
    cells[1::2] = np.array(text, dtype=object)[inverse]
    return _filled(out, arrays, cells)


def _filled(out: list[str], arrays: list[tuple[int, np.ndarray]], cells: np.ndarray) -> Iterator[str]:
    """The text of `out` in pieces: each array is written at its slot from
    its run of sign and magnitude `cells`, one piece per row of a matrix."""
    rows_of: dict[tuple[int, ...], tuple[int, list[str]]] = {}
    done = start = 0
    close = ""
    for slot, arr in arrays:
        if arr.shape not in rows_of:
            rows_of[arr.shape] = _row_template(arr.shape)
        rows, row = rows_of[arr.shape]
        head = close + "".join(out[done:slot]) + ("[" if rows else "")
        for _ in range(max(rows, 1)):
            stop = start + len(row) // 2
            row[1::2] = cells[start:stop].tolist()
            yield head + "".join(row)
            head, start = ",", stop
        close = "]" if rows else ""
        done = slot + 1
    yield close + "".join(out[done:])


def _row_template(shape: tuple[int, ...]) -> tuple[int, list[str]]:
    """The rows of an array of `shape` (0 when it is written whole) and
    one row's text, with an empty cell for each sign and each magnitude."""
    rows = shape[0] if len(shape) > 1 and math.prod(shape) else 0
    template = "[%s%s,%s%s]"
    for n in reversed(shape[1:] if rows else shape):
        template = "[" + ",".join([template] * n) + "]"
    literals = template.split("%s")
    row = [""] * (2 * len(literals) - 1)
    row[0::2] = literals
    return rows, row


def _dump(obj, out: list[str], arrays: list[tuple[int, np.ndarray]]) -> None:
    """Append the canonical text of `obj` to `out`, with an empty slot for
    each complex ndarray, which goes to `arrays` as (slot, array)."""
    if isinstance(obj, dict):
        out.append("{")
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ParseError(f"non-string key {key!r}")
            out.append(encode_basestring_ascii(key) + ":")
            _dump(obj[key], out, arrays)
            out.append(",")
        if obj:
            out.pop()
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _dump(item, out, arrays)
            out.append(",")
        if obj:
            out.pop()
        out.append("]")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
        _require_finite(obj)
        arrays.append((len(out), obj))
        out.append("")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _decode_array(raw, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The complex array of `shape` that `raw` holds as nested [re, im] pairs
    of numbers (not booleans), each finite as a float64. `raw` is the
    nested lists json gives, or the float64 pairs `_read_json` gives."""
    if isinstance(raw, np.ndarray) and raw.dtype == np.float64:
        arr = raw
    else:
        arr = np.array(raw, dtype=object)
    if arr.shape != shape + (2,):
        raise ParseError(f"{where}: expected shape {list(shape + (2,))}, got {list(arr.shape)}")
    flat = arr.ravel()

    def cell(i: int) -> str:
        return where + "".join(f"[{k}]" for k in np.unravel_index(i // 2, shape))

    if arr is raw:
        parts = flat
    else:
        if not set(map(type, flat)) <= {int, float}:  # the common case skips the per-part scan
            bad = next((i for i, x in enumerate(flat) if not _is_number(x)), None)
            if bad is not None:
                raise ParseError(f"{cell(bad)}: complex entry must be a [re, im] pair of numbers")
        try:
            parts = flat.astype(np.float64)
        except OverflowError:
            bad = next(i for i, x in enumerate(flat) if not abs(x) <= _FLOAT_MAX)
            raise ParseError(f"{cell(bad)}: number too large for a float64") from None
    finite = np.isfinite(parts)
    if not finite.all():
        raise ParseError(f"{cell(int(np.argmin(finite)))}: entry is not a finite float64")
    return parts.view(np.complex128).reshape(shape)


def encode_matrix_obj(obj) -> dict:
    """Build the JSON document dict for a supported object. Its `data` and
    `sigma` values are complex ndarrays, which only `dumps_canonical` renders."""
    kind = kind_of(obj)
    if kind == "witness":
        body = {
            "data": obj.matrix().mat,
            "form": obj.form.value,
            "c": float(obj.c),
            "sigma": obj.sigma.mat.mat,
            "normalized": bool(obj.sigma.normalized),
        }
    elif kind == "density":
        body = {"data": obj.mat.mat, "normalized": bool(obj.normalized)}
    elif kind == "pure":
        body = {"data": obj.vec.vec, "normalized": bool(obj.normalized)}
    elif kind == "hermitian":
        body = {"data": obj.mat}
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
    if not isinstance(kind, str) or kind not in KINDS:
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
    _require_within_cap(dim, "total dimension")

    if kind == "pure":
        vec = _decode_array(raw.get("data"), (dim,), "data")
        return PureState(ComplexVector(dims, vec), normalized=_get_normalized(raw))

    data = _decode_array(raw.get("data"), (dim, dim), "data")
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
    if not _is_number(c_raw) or not abs(c_raw) <= _FLOAT_MAX:
        raise ParseError(f"c must be a finite number, got {c_raw!r}")
    sigma_arr = _decode_array(raw.get("sigma"), (dim, dim), "sigma")
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
        raw = _read_json(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and too-deep nesting
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    return parse_matrix_obj(raw)


def _read_json(text: str):
    """`json.loads(text)` as `parse_matrix_file` calls it, except that each
    regular array of [re, im] pairs of numbers under the key `data` or
    `sigma` of the top object, where `_ARRAY_KEY` finds the key before it,
    comes back as a float64 ndarray of the pairs. The top object is read by
    json's Python object parser, every other value by json's own scanner,
    so a document reads to the same values, or fails with the same error."""
    decoder = json.JSONDecoder(parse_int=_read_int, parse_constant=_reject_constant)
    scan_whole, memo = decoder.scan_once, decoder.memo

    def scan_value(s: str, idx: int) -> tuple[object, int]:
        # json has read the key and the colon, so the text before idx ends with them
        if s[idx:idx + 1] == "[" and _ARRAY_KEY.search(s, max(0, idx - 32), idx):
            try:
                found = _flat_pairs(s, idx, scan_whole)
            except (StopIteration, ValueError, OverflowError):  # raised in the flat list
                found = None  # json reads the array nested below, and raises in the file
            if found is not None:
                return found
        return scan_whole(s, idx)

    def scan_top(s: str, idx: int) -> tuple[object, int]:
        # refers to no decoder, whose scan_once it becomes: that cycle
        # would keep the text alive after the read, until gc collects it
        if s[idx:idx + 1] != "{":
            return scan_whole(s, idx)
        return json.decoder.JSONObject((s, idx + 1), True, scan_value, None, None, memo)

    decoder.scan_once = scan_top
    return decoder.decode(text)


def _flat_pairs(s: str, start: int, scan_whole) -> tuple[np.ndarray, int] | None:
    """The array of [re, im] pairs of numbers that opens at `s[start]`, as
    float64 of shape (..., 2), and the index after it; None where the text
    up to its last `]` before the next string does not spell one. A number
    json refuses raises StopIteration or ValueError, and one too large for
    a float64 OverflowError, at a position in the flat list, not the file:
    the caller reads such an array nested, where it stands in the file."""
    quote = s.find('"', start)
    end = s.rfind("]", start, quote if quote >= 0 else len(s)) + 1
    text = s[start:end].encode("ascii")
    if any(c in text for c in _JSON_SPACE):  # a written file has none
        text = text.translate(None, _JSON_SPACE)
    skeleton = text.translate(None, _NUMBER_CHARS)
    shape = _skeleton_shape(skeleton)
    if shape is None or shape[-1] != 2:
        return None
    rows, row = _row_template(shape[:-1])
    template = "".join(row).encode("ascii")
    if rows:
        template = b"[" + b",".join([template] * rows) + b"]"
    # with every cell holding a number, each number of the flat list below
    # is one whole cell, so json reads the nested text to the same values
    if skeleton != template or b"[," in text or b",]" in text:
        return None
    del text, skeleton, template
    numbers, _ = scan_whole("[" + s[start + 1:end - 1].translate(_BRACKETS_TO_SPACES) + "]", 0)
    return np.fromiter(numbers, dtype=np.float64, count=len(numbers)).reshape(shape), end


def _skeleton_shape(skeleton: bytes) -> tuple[int, ...] | None:
    """The shape, of 2 to _MAX_AXES axes, of the regular nested array whose
    brackets and commas are `skeleton`, read from where its first array of
    one axis, of two axes and so on close; None where no such shape fits
    those. A shape is returned only if its template is as long as
    `skeleton`, so the caller still compares the two."""
    depth = len(skeleton) - len(skeleton.lstrip(b"["))
    if not 2 <= depth <= _MAX_AXES:  # also keeps the search below linear
        return None
    shape: list[int] = []
    inner = 0  # the skeleton length of an array of the axes read so far
    for axes in range(1, depth + 1):
        close = skeleton.find(b"]" * axes)
        if close < 0:
            return None
        length = close + 2 * axes - depth
        n, rest = divmod(length - 1, inner + 1)
        if rest or n < 1:
            return None
        shape.insert(0, n)
        inner = length
    return tuple(shape) if inner == len(skeleton) else None


def _read_int(token: str) -> int | float:
    """An integer token; `-0` is how the writer writes -0.0, so it stays -0.0."""
    return -0.0 if token == "-0" else int(token)


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON constant {name!r} not allowed")


def require_writable(path: str | Path) -> None:
    """Raise the ParseError of `write_matrix_file` before any work where the
    file plainly cannot be written: its directory is missing or not
    writable, or the path is a directory. Creates nothing."""
    p = Path(path)
    if p.is_dir():
        reason = "it is a directory"
    elif not p.parent.is_dir():
        reason = f"no directory {p.parent}"
    elif not os.access(p.parent, os.W_OK | os.X_OK) or (p.exists() and not os.access(p, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise ParseError(f"cannot write {p}: {reason}")


def write_matrix_file(obj, path: str | Path) -> None:
    p = Path(path)
    try:
        pieces = _pieces(encode_matrix_obj(obj))  # checked whole, so a ParseError leaves no file
        with p.open("w") as f:
            f.writelines(pieces)
            f.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {p}: {exc}") from exc
