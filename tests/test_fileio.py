"""Canonical JSON interchange: round trips, formatting, rejection."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witness_forge import fileio
from witness_forge.errors import ParamOutOfRange, ParseError, WitnessForgeError
from witness_forge.extend import purify_extend
from witness_forge.fileio import (
    _read_int,
    _reject_constant,
    dumps_canonical,
    encode_matrix_obj,
    parse_matrix_file,
    parse_matrix_obj,
    write_matrix_file,
)
from witness_forge.linalg import ComplexMatrix, ComplexVector
from witness_forge.qstate import DensityMatrix, PureState, isotropic
from witness_forge.witness import Witness, WitnessForm, make_witness


def _sample_objects():
    sq = isotropic(0.2)
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    herm = np.diag([1.0, -2.0]).astype(complex)
    herm[0, 1] = 0.5 + 0.25j
    herm[1, 0] = 0.5 - 0.25j
    return [
        sq,
        PureState(ComplexVector((2, 2), v)),
        ComplexMatrix((2,), herm),
        make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.3),
    ]


def test_round_trip_is_byte_identical(tmp_path):
    for i, obj in enumerate(_sample_objects()):
        path = tmp_path / f"obj{i}.json"
        write_matrix_file(obj, path)
        text = path.read_text()
        # the parsed object writes the same bytes to a fresh file
        path2 = tmp_path / f"obj{i}b.json"
        write_matrix_file(parse_matrix_file(path), path2)
        assert path2.read_text() == text


def test_negative_zero_round_trips(tmp_path):
    # the writer writes -0.0 as `-0`, which JSON alone reads as the int 0
    mz = complex(-0.0, -0.0)
    rho = DensityMatrix(ComplexMatrix((2,), np.array([[0.5, mz], [mz, 0.5]])))
    path = tmp_path / "rho.json"
    write_matrix_file(rho, path)
    text = path.read_text()
    assert '[[[0.5,0],[-0,-0]],[[-0,-0],[0.5,0]]]' in text
    back = parse_matrix_file(path)
    parts = back.mat.mat.view(np.float64).ravel()
    assert np.signbit(parts).tolist() == [False, False, True, True, True, True, False, False]
    write_matrix_file(back, tmp_path / "back.json")
    assert (tmp_path / "back.json").read_text() == text


def test_parsed_objects_keep_their_content(tmp_path):
    sq = isotropic(0.2)
    p = tmp_path / "sq.json"
    write_matrix_file(sq, p)
    back = parse_matrix_file(p)
    assert isinstance(back, DensityMatrix)
    assert back.dims == (2, 2)
    assert back.normalized
    np.testing.assert_allclose(back.mat.mat, sq.mat.mat, atol=0)

    w = make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.3)
    pw = tmp_path / "w.json"
    write_matrix_file(w, pw)
    back_w = parse_matrix_file(pw)
    assert isinstance(back_w, Witness)
    assert back_w.form is WitnessForm.C_MINUS_SIGMA
    assert back_w.c == 0.3
    np.testing.assert_allclose(back_w.matrix().mat, w.matrix().mat, atol=0)


def test_boundary_witness_round_trips(tmp_path):
    # a witness built with check="none" at c = lambda_max must survive
    # file round trips without interval re-checking
    i2 = DensityMatrix(ComplexMatrix((2,), np.eye(2) / 2))
    w = make_witness(WitnessForm.C_MINUS_SIGMA, i2, 0.5, check="none")
    p = tmp_path / "boundary.json"
    write_matrix_file(w, p)
    back = parse_matrix_file(p)
    assert back.c == 0.5


def test_canonical_float_formatting():
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical(1.0) == "1"
    assert dumps_canonical(0.5) == "0.5"
    assert dumps_canonical({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'
    assert dumps_canonical(np.float64(0.25)) == "0.25"
    assert dumps_canonical(np.bool_(True)) == "true"
    assert dumps_canonical(np.int64(7)) == "7"
    # parsing the rendered float recovers the value exactly
    for x in (0.1, 1 / 3, 0.30000000000000004, 5e-324, -0.0):
        assert float(dumps_canonical(x)) == x


def test_parse_rejects_structural_problems(tmp_path):
    good = json.loads(dumps_canonical(encode_matrix_obj(isotropic(0.2))))

    def reject(mutate, match=None):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ParseError, match=match):
            parse_matrix_obj(doc)

    reject(lambda d: d.update(version="2"))
    reject(lambda d: d.update(kind="banana"))
    reject(lambda d: d.update(dims=[2, 0]))
    reject(lambda d: d.update(dims="22"))
    reject(lambda d: d["data"].pop())
    reject(lambda d: d["data"][0].__setitem__(0, [1.0]))
    reject(lambda d: d["data"][0].__setitem__(0, "1+2j"))
    reject(lambda d: d["data"][0].__setitem__(0, [True, 0.5]))
    reject(lambda d: d["data"][0].__setitem__(0, [None, 0.5]), match=r"^data\[0\]\[0\]: complex")
    reject(lambda d: d["data"][0].__setitem__(0, [{}, 0.5]))
    reject(lambda d: d["data"][1].pop())  # ragged rows
    reject(lambda d: d["data"][0].__setitem__(0, [1.0, 0.0, 0.0]))
    reject(lambda d: d.update(data=0.5))
    reject(lambda d: d.update(kind="pure"))  # a pure state whose data is a matrix
    reject(lambda d: d.update(normalized="yes"))
    with pytest.raises(ParseError):
        parse_matrix_obj(["not", "an", "object"])


def _num(x) -> str:
    return format(float(x), ".17g")


def _render(v) -> str:
    """A document value written out entry by entry: every float with 17
    significant digits, complex entries as [re, im] pairs."""
    if isinstance(v, np.ndarray) and v.ndim == 1:
        return "[" + ",".join(f"[{_num(z.real)},{_num(z.imag)}]" for z in v) + "]"
    if isinstance(v, (list, np.ndarray)):
        return "[" + ",".join(map(_render, v)) + "]"
    if isinstance(v, float):
        return _num(v)
    return json.dumps(v)


def _reference_file_text(obj) -> str:
    """The file text of `obj` with every value rendered by `_render`."""
    doc = encode_matrix_obj(obj)
    return "{" + ",".join(f"{json.dumps(k)}:{_render(doc[k])}" for k in sorted(doc)) + "}\n"


def _with_specials(rng: np.random.Generator, shape) -> np.ndarray:
    """A random complex array whose first entries hold -0.0, 5e-324,
    1e-310, 2**53 and 1/3 in their real and imaginary parts."""
    specials = [-0.0, 5e-324, 1e-310, 2.0**53, 1 / 3]
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cells = [complex(x, y) for x, y in zip(specials, reversed(specials))]
    arr.flat[: len(cells)] = cells[: arr.size]
    return arr


def test_writer_matches_per_entry_rendering(tmp_path):
    rng = np.random.default_rng(5)
    for dims in ((2,), (2, 2), (2, 2, 2), (2, 2, 2, 2)):
        d = int(np.prod(dims))
        # a PSD diagonal with the specials on it, and -0.0 everywhere else
        diag = np.abs(_with_specials(rng, d).real)
        sigma_arr = np.where(np.eye(d, dtype=bool), np.diag(diag), complex(-0.0, -0.0))
        sigma = DensityMatrix(ComplexMatrix(dims, sigma_arr), normalized=False)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho = DensityMatrix(ComplexMatrix(dims, rho / np.trace(rho).real))
        objects = [
            ComplexMatrix(dims, _with_specials(rng, (d, d))),
            sigma,
            PureState(ComplexVector(dims, _with_specials(rng, d)), normalized=False),
            make_witness(WitnessForm.C_MINUS_SIGMA, sigma, 1 / 3, check="none"),
            purify_extend(make_witness(WitnessForm.C_MINUS_SIGMA, rho, 0.1, check="none")),
        ]
        for obj in objects:
            write_matrix_file(obj, tmp_path / "obj.json")
            assert (tmp_path / "obj.json").read_text() == _reference_file_text(obj)


# -0.0, the smallest subnormal, +-max, both sides of the switch to exponent
# notation for small numbers (1e-4, 1e-5) and for large ones (1e17).
_SWITCH_PARTS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                 1e-4, 1e-5, 1e17, 9.999999999999998e16]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([(1,), (3,), (2, 2), (4, 4), (2, 2, 2)]).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=2 * math.prod(shape),
                max_size=2 * math.prod(shape),
            ),
        )
    )
)
@example(((2, 2), _SWITCH_PARTS))
def test_array_renderer_matches_per_entry_format(case):
    shape, parts = case
    arr = np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)
    assert dumps_canonical(arr) == _render(arr)


# c for c*I - a and a - c*I: both signs, and both zeros, so that the
# zeros off the diagonal carry either sign
_OFFSETS = [-1 / 3, -0.0, 0.0, 1 / 3]


@st.composite
def _documents_with_repeats(draw):
    """One to three arrays whose magnitudes repeat: a, -a, conj(a), a row
    of -a, and c*I - a or a - c*I, the two witness forms."""
    d = draw(st.sampled_from([1, 2, 3]))
    part = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
    parts = draw(st.lists(part, min_size=2 * d * d, max_size=2 * d * d))
    a = np.array(parts, dtype=np.float64).view(np.complex128).reshape(d, d)
    c = draw(st.sampled_from(_OFFSETS))
    arrays = {
        "a": a,
        "minus": -a,
        "conj": a.conj(),
        "row": -a[0],
        "c_minus_sigma": c * np.eye(d) - a,
        "sigma_minus_c": a - c * np.eye(d),
    }
    names = draw(st.lists(st.sampled_from(sorted(arrays)), min_size=1, max_size=3, unique=True))
    return {name: arrays[name] for name in names}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_documents_with_repeats())
def test_joint_renderer_matches_per_entry_format(doc):
    expected = "{" + ",".join(f"{json.dumps(k)}:{_render(doc[k])}" for k in sorted(doc)) + "}"
    assert dumps_canonical(doc) == expected


def test_writer_names_the_first_nonfinite_part_in_key_order():
    finite = np.diag([1.0, -2.0]).astype(complex)
    second = finite.copy()
    second[1, 0] = complex(0.0, np.nan)
    second[1, 1] = -np.inf
    with pytest.raises(ParseError, match=r"^non-finite number nan cannot"):
        dumps_canonical({"a": finite, "b": second})
    with pytest.raises(ParseError, match=r"^non-finite number nan cannot"):
        dumps_canonical({"a": finite, "b": second, "c": np.inf})
    with pytest.raises(ParseError, match=r"^non-finite number inf cannot"):
        dumps_canonical({"a": finite, "b": np.inf, "c": second})
    vector = np.array([complex(-np.inf, 0.0), complex(0.0, np.nan)])
    with pytest.raises(ParseError, match=r"^non-finite number -inf cannot"):
        dumps_canonical({"a": [finite, vector], "b": second})


def test_writer_checks_each_array_where_it_meets_it():
    # before any later key or value is looked at
    nan = np.array([complex(0.0, np.nan)])
    for doc in ({"a": nan, "b": object()}, {"a": [nan, {1: 2}]}):
        with pytest.raises(ParseError, match=r"^non-finite number nan cannot"):
            dumps_canonical(doc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("imag", [False, True])
def test_writer_refuses_nonfinite_arrays(tmp_path, value, imag):
    arr = np.diag([1.0, -2.0]).astype(complex)
    arr[1, 0] = complex(0.0, value) if imag else complex(value, 0.0)
    m = ComplexMatrix((2,), np.eye(2))
    object.__setattr__(m, "mat", arr)  # past the constructor's finiteness check
    message = f"non-finite number {value!r} cannot"
    with pytest.raises(ParseError, match=message):
        dumps_canonical({"data": arr})
    target = tmp_path / "m.json"
    with pytest.raises(ParseError, match=message):
        write_matrix_file(m, target)
    assert not target.exists()


def test_parse_rejects_nonfinite_and_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        parse_matrix_file(bad)
    inf = tmp_path / "inf.json"
    inf.write_text(
        '{"version":"1","kind":"hermitian","dims":[1],"data":[[[Infinity,0]]]}'
    )
    with pytest.raises(ParseError):
        parse_matrix_file(inf)
    with pytest.raises(ParseError):
        parse_matrix_file(tmp_path / "missing.json")


def test_parse_witness_consistency_check(tmp_path):
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    doc = json.loads(dumps_canonical(encode_matrix_obj(w)))
    doc["data"][0][0] = [9.0, 0.0]  # tamper with the materialized matrix
    with pytest.raises(ParseError):
        parse_matrix_obj(doc)
    doc2 = json.loads(dumps_canonical(encode_matrix_obj(w)))
    doc2["form"] = "diagonal"
    with pytest.raises(ParseError):
        parse_matrix_obj(doc2)
    doc3 = json.loads(dumps_canonical(encode_matrix_obj(w)))
    doc3["c"] = True
    with pytest.raises(ParseError):
        parse_matrix_obj(doc3)


def test_semantic_validation_is_not_a_parse_error(tmp_path):
    # structurally fine, semantically not a state: negative eigenvalue
    doc = {
        "version": "1",
        "kind": "density",
        "dims": [2],
        "data": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        "normalized": True,
    }
    with pytest.raises(ParamOutOfRange):
        parse_matrix_obj(doc)


@pytest.mark.parametrize("doc", [{1: 0}, {"a": object()}], ids=["int-key", "object-value"])
def test_writer_refuses_what_json_cannot_hold(doc):
    with pytest.raises(ParseError):
        dumps_canonical(doc)


def test_writing_an_unknown_object_writes_no_file(tmp_path):
    target = tmp_path / "o.json"
    with pytest.raises(ParseError, match="cannot write object of type object"):
        write_matrix_file(object(), target)
    assert not target.exists()


def test_a_failed_write_is_a_parse_error(tmp_path):
    # the directory named by the path is a regular file, so open() fails
    blocker = tmp_path / "f"
    blocker.write_text("")
    with pytest.raises(ParseError, match=f"^cannot write {re.escape(str(blocker / 'x.json'))}: "):
        write_matrix_file(isotropic(0.2), blocker / "x.json")


def _plain_json_parse(path) -> object:
    """The reference reader: the file's whole text through plain
    `json.loads`, with `parse_matrix_file`'s number hooks and error mapping."""
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"), parse_int=_read_int, parse_constant=_reject_constant
        )
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_matrix_obj(raw)


def _bits(obj) -> tuple:
    """Everything a parsed object holds, its arrays as raw bytes."""
    if isinstance(obj, Witness):
        return ("witness", obj.form, np.float64(obj.c).tobytes(), _bits(obj.sigma))
    if isinstance(obj, DensityMatrix):
        return ("density", obj.normalized, _bits(obj.mat))
    if isinstance(obj, PureState):
        return ("pure", obj.normalized, obj.dims, obj.vec.vec.tobytes())
    return ("hermitian", obj.dims, obj.mat.tobytes())


def _outcome(read, *args) -> tuple:
    try:
        return ("ok", _bits(read(*args)))
    except WitnessForgeError as exc:
        return (type(exc).__name__, str(exc))


def _parity_objects() -> list:
    rng = np.random.default_rng(30)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = DensityMatrix(ComplexMatrix((3,), g @ g.conj().T / np.trace(g @ g.conj().T).real))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return [
        rho,
        PureState(ComplexVector((2, 2), v / np.linalg.norm(v))),
        ComplexMatrix((2,), np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.0]])),
        make_witness(WitnessForm.C_MINUS_SIGMA, rho, 0.9, check="none"),
        make_witness(WitnessForm.SIGMA_MINUS_C, isotropic(0.2), 0.1, check="none"),
    ]


_PARITY_OBJECTS = _parity_objects()
_TOKEN = re.compile(r'"[^"]*"|[-+.\dEe]+|[A-Za-z]+|\S')
_NUMBER = re.compile(r"[-\d]")
# spellings a number cell may take: valid, out of range, not numbers, not JSON
_CELLS = ["1E5", "1e+05", "-0", "3", "1e400", "9" * 400, "true", "null", '"1"', "NaN",
          "01", "+1", ".5", "1.", "-", "1e", "\u0661"]
_SPACES = ["", " ", "\n", "\t", "\r\n", "  \n  "]


def _document(obj, last: str | None) -> list[str]:
    """The tokens of `obj`'s canonical file text, with the key `last` moved
    to the end of the object."""
    doc = encode_matrix_obj(obj)
    keys = sorted(doc, key=lambda k: k == last)
    text = "{" + ",".join(f"{json.dumps(k)}:{dumps_canonical(doc[k])}" for k in keys) + "}"
    return _TOKEN.findall(text)


def _pairs(tokens: list[str]) -> list[int]:
    """The indices of the `[` that open an [re, im] pair."""
    return [
        i for i in range(len(tokens) - 4)
        if tokens[i] == "[" and tokens[i + 2] == "," and tokens[i + 4] == "]"
        and _NUMBER.match(tokens[i + 1]) and _NUMBER.match(tokens[i + 3])
    ]


@st.composite
def _mutated_files(draw) -> str:
    """A written file of some kind, its tokens changed by a few mutations,
    then spaced out, pretty-printed or cut short."""
    obj = draw(st.sampled_from(_PARITY_OBJECTS))
    keys = sorted(encode_matrix_obj(obj))
    tokens = _document(obj, draw(st.sampled_from([None, *keys])))
    for _ in range(draw(st.integers(0, 2))):
        numbers = [i for i, t in enumerate(tokens) if _NUMBER.match(t)]
        pairs = _pairs(tokens)
        kind = draw(st.sampled_from(
            ["cell", "integer", "ragged", "missing", "extra", "stray", "outside", "split", "token"]
        ))
        if kind == "cell":
            tokens[draw(st.sampled_from(numbers))] = draw(st.sampled_from(_CELLS))
        elif kind == "integer":  # a number cut to its integer part
            i = draw(st.sampled_from(numbers))
            tokens[i] = re.match(r"-?\d*", tokens[i]).group()
        elif kind == "token":  # a bracket, comma or number dropped or doubled
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = draw(st.sampled_from(["", tokens[i] * 2]))
        elif pairs:
            i = draw(st.sampled_from(pairs))
            if kind == "ragged":  # a row one pair short: the pair and a comma next to it
                start = i if tokens[i + 5:i + 6] == [","] else i - 1
                del tokens[start:start + 6]
            elif kind == "missing":
                del tokens[i + 2:i + 4]
            elif kind == "extra":
                tokens[i + 4:i + 4] = [",", "0.5"]
            elif kind == "stray":  # the real part moved out of its pair: re [, im]
                tokens[i:i + 2] = [tokens[i + 1], "["]
            elif kind == "outside":  # a number before the pair: 5 [re, im]
                tokens.insert(i, "5")
            else:  # a second token in the real part, run into it unless spaced
                tokens.insert(i + 2, "1")
    spacing = draw(st.sampled_from(["none", "random", "pretty"]))
    if spacing == "random":
        gaps = draw(st.lists(st.sampled_from(_SPACES), min_size=len(tokens), max_size=len(tokens)))
        text = "".join(g + t for g, t in zip(gaps, tokens))
    elif spacing == "pretty":
        text = re.sub(r"([\[{,])", r"\1\n  ", "".join(tokens))
    else:
        text = "".join(tokens)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_files())
@example("".join(_document(_PARITY_OBJECTS[0], None)))
@example("".join(_document(_PARITY_OBJECTS[1], "data")))
@example(json.dumps(json.loads(dumps_canonical(encode_matrix_obj(_PARITY_OBJECTS[0]))), indent=4))
@example(json.dumps(json.loads(dumps_canonical(encode_matrix_obj(_PARITY_OBJECTS[1]))), indent=4))
def test_reader_matches_plain_json(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parity") / "m.json"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(_plain_json_parse, path)
    assert _outcome(parse_matrix_file, path) == expected


_NEAR_MISSES = [
    "[[[0.5,0],[0,0]],[[0,0],[0.5,0]]]",      # the canonical spelling
    "[[[0.5,0],[0,0]],[[0,0],[0.5,0]] ]",
    "[[[0.5,0],[0,0]],[[0,0],[0.5,0]],]",
    "[[0.5[,0],[0,0]],[[0,0],[0.5,0]]]",      # a part outside its pair
    "[[[0.5,0],[0,]0],[[0,0],[0.5,0]]]",
    "[[[0.5,0],[0,1]]5,[[1,0],[0.5,0]]]",     # a number outside any pair
    "[[[0.5,0],[0,1]],[5[1,0],[0.5,0]]]",
    "[[[0.5 1,0],[0,0]],[[0,0],[0.5,0]]]",    # two numbers run together
    "[[[0.5,0],[0,0]],[[0,0],[0.5,\u0661]]]",  # not an ASCII digit
    "[[[0.5,0],[0,0]],[[0,0],[0.5,1e400]]]",
    "[[[0.5,0],[0,0]],[[0,0],[0.5," + "9" * 400 + "]]]",
]


@pytest.mark.parametrize("data", _NEAR_MISSES)
def test_reader_matches_plain_json_on_near_misses(tmp_path, data):
    text = '{"version":"1","kind":"density","dims":[2],"normalized":false,"data":%s}' % data
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(parse_matrix_file, path) == _outcome(_plain_json_parse, path)


@pytest.mark.parametrize("key", ["version", "kind", "dims", "c", "form", "normalized", "extra"])
@pytest.mark.parametrize("value", [[[1, 2]], {"data": [[1, 2]]}])
def test_reader_matches_plain_json_on_header_values(tmp_path, key, value):
    # an array of pairs is read flat only under data and sigma, so a header
    # check names the value as json gives it
    doc = json.loads(dumps_canonical(encode_matrix_obj(_PARITY_OBJECTS[3])))
    doc[key] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _outcome(parse_matrix_file, path) == _outcome(_plain_json_parse, path)


def test_reader_reads_c_with_json_number_grammar(tmp_path):
    # float() and the \d of a str pattern take any Unicode digit, json only ASCII ones
    canonical = dumps_canonical(encode_matrix_obj(_PARITY_OBJECTS[3])) + "\n"
    text = canonical.replace('"c":0.90000000000000002', '"c":0.9\u0661')
    assert text != canonical
    path = tmp_path / "w.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(parse_matrix_file, path)[0] == "ParseError"
    assert _outcome(parse_matrix_file, path) == _outcome(_plain_json_parse, path)


def test_a_refused_file_is_read_once(tmp_path, monkeypatch):
    # the one pass reports what plain json.loads would, without calling it:
    # a refused array is read nested where it stands, never the whole text again
    paths = []
    for i, data in enumerate(_NEAR_MISSES):
        paths.append(tmp_path / f"m{i}.json")
        paths[-1].write_text(
            '{"version":"1","kind":"density","dims":[2],"normalized":false,"data":%s}' % data,
            encoding="utf-8",
        )
    doc = json.loads(dumps_canonical(encode_matrix_obj(_PARITY_OBJECTS[3])))
    doc["extra"] = [[1, 2]]  # an array of pairs under a header key
    paths.append(tmp_path / "w.json")
    paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    expected = [_outcome(_plain_json_parse, path) for path in paths]

    def read_again(*args, **kwargs):
        raise AssertionError("the whole text was read again by json.loads")

    monkeypatch.setattr(fileio.json, "loads", read_again)
    assert [_outcome(parse_matrix_file, path) for path in paths] == expected


def test_only_arrays_under_a_data_or_sigma_key_are_tried_flat(tmp_path, monkeypatch):
    # the header arrays never reach the flat read; a data key spelled with an
    # escape, or wide spacing before sigma's colon, is read by json instead
    canonical = dumps_canonical(encode_matrix_obj(_PARITY_OBJECTS[4])) + "\n"
    escaped = canonical.replace('"data":', '"d\\u0061ta":')
    spaced = canonical.replace('"sigma":', '"sigma"' + " " * 100 + ":")
    assert len({canonical, escaped, spaced}) == 3
    real = fileio._flat_pairs
    seen: list[str] = []

    def spy(s, start, scan_whole):
        seen.append(s[:start].rstrip(" :").rsplit('"', 2)[1])
        return real(s, start, scan_whole)

    monkeypatch.setattr(fileio, "_flat_pairs", spy)
    outcomes, keys = {}, {}
    for name, text in (("canonical", canonical), ("escaped", escaped), ("spaced", spaced)):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        seen.clear()
        outcomes[name] = _outcome(parse_matrix_file, path)
        keys[name] = sorted(seen)
    assert outcomes["canonical"][0] == "ok"
    assert outcomes["escaped"] == outcomes["spaced"] == outcomes["canonical"]
    assert keys == {"canonical": ["data", "sigma"], "escaped": ["sigma"], "spaced": ["data"]}
