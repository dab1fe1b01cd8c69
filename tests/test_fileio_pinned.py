"""The writer's bytes, pinned for every numpy the package supports.

Each object is built entry by entry from `default_rng` draws, with no
BLAS or LAPACK call in the bits that are written (the trace is an exact
`math.fsum`), so the expected text below holds on any numpy release. A
renderer whose output moved with the numpy version, for example with
the shape of `np.unique`'s inverse, fails here.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np

from witness_forge.fileio import parse_matrix_file, write_matrix_file
from witness_forge.linalg import ComplexMatrix, ComplexVector
from witness_forge.qstate import DensityMatrix, PureState
from witness_forge.witness import Witness, WitnessForm


def _draws(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _density(rng: np.random.Generator, dims: tuple[int, ...], spread: float) -> DensityMatrix:
    """I + spread*(a + a^H), diagonally dominant, over its exact trace."""
    d = math.prod(dims)
    a = _draws(rng, (d, d))
    h = spread * (a + a.conj().T) + np.eye(d)
    return DensityMatrix(ComplexMatrix(dims, h / math.fsum(h.diagonal().real.tolist())))


def _pinned_objects() -> dict:
    rng = np.random.default_rng(20261019)
    a = _draws(rng, (2, 2))
    herm = a + a.conj().T
    herm[0, 0] = complex(herm[0, 0].real, -0.0)
    pure = PureState(ComplexVector((3,), 1e-5 * _draws(rng, 3)), normalized=False)
    small = _density(rng, (2,), 0.1)
    big = _density(rng, (4, 4, 16), 1e-3)
    return {
        "hermitian": ComplexMatrix((2,), herm),
        "pure": pure,
        "witness": Witness(WitnessForm.SIGMA_MINUS_C, 1 / 3, small),
        "big": Witness(WitnessForm.C_MINUS_SIGMA, 0.75 / 256, big),
    }


_EXPECTED_TEXT = {
    "hermitian": (
        '{"data":[[[0.12480869258562376,-0],[-0.66355218059214582,-0.31736763974072968]],'
        '[[-0.66355218059214582,0.31736763974072968],[1.3071321205687854,0]]],'
        '"dims":[2],"kind":"hermitian","version":"1"}\n'
    ),
    "pure": (
        '{"data":[[2.3175221390180632e-06,-2.563837268986909e-06],'
        '[3.3506566297478882e-06,-7.738359338126195e-08],'
        '[1.7698186565514904e-05,1.0441124960787901e-05]],'
        '"dims":[3],"kind":"pure","normalized":false,"version":"1"}\n'
    ),
    "witness": (
        '{"c":0.33333333333333331,'
        '"data":[[[0.18294170786710157,0],[0.12374726319344008,-0.20107879042381377]],'
        '[[0.12374726319344008,0.20107879042381377],[0.15039162546623175,0]]],'
        '"dims":[2],"form":"sigma_minus_c","kind":"witness","normalized":true,'
        '"sigma":[[[0.51627504120043488,0],[0.12374726319344008,-0.20107879042381377]],'
        '[[0.12374726319344008,0.20107879042381377],[0.48372495879956506,0]]],"version":"1"}\n'
    ),
}
# the (4,4,16) witness: 6,383,876 bytes
_EXPECTED_SHA256 = "38750b20488bf5b911a620c68a5c80e30987f1ae6bc1d09cba499c3608e22937"


def test_small_files_have_the_pinned_text(tmp_path):
    objects = _pinned_objects()
    for name, text in _EXPECTED_TEXT.items():
        write_matrix_file(objects[name], tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_bytes() == text.encode("ascii"), name


def test_a_256_dim_witness_has_the_pinned_bytes(tmp_path):
    write_matrix_file(_pinned_objects()["big"], tmp_path / "big.json")
    data = (tmp_path / "big.json").read_bytes()
    assert len(data) == 6_383_876
    assert hashlib.sha256(data).hexdigest() == _EXPECTED_SHA256


def test_reading_a_256_dim_witness_peaks_below_3_5_times_its_size(tmp_path):
    # the text alone is 1x the file size; a Python list per [re, im] entry
    # of its two 256x256 arrays took the reader to about 4.1x
    path = tmp_path / "big.json"
    write_matrix_file(_pinned_objects()["big"], path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        parse_matrix_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * size, f"peak {peak / size:.2f}x the file size"
