"""The per-value caches of the tomography path: read-only, lazy and bit-exact."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carvesim
from carvesim import BellKind, RotationSpec, bell_state, husimi_grid, run_protocol
from carvesim.analysis import _husimi_axes
from carvesim.protocols import _default_model
from carvesim.states import _bell_pair, _pair_unitary, _pair_unitary_of, single_qubit_unitary


def test_cached_arrays_are_read_only(make_state):
    grid = husimi_grid(make_state(), 6, 8)
    cached = [
        _pair_unitary(RotationSpec("y", 0.3)),
        *_husimi_axes(6, 8),
        grid.theta,
        grid.phi,
        grid.x,
        grid.y,
    ]
    cached += [array for kind in BellKind for array in _bell_pair(kind)]
    model = _default_model()
    cached += [model.a_amp, model.d_amp, model.scatter, model.loss]
    for array in cached:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    grid.q[0, 0] = 0.0  # each grid's q is its own


def test_pair_unitary_is_bitwise_kron_on_random_specs_and_signed_zeros():
    rng = np.random.default_rng(16)
    axes = ["x", "y", "z", 0.0, -0.0] + list(rng.uniform(-7.0, 7.0, 5))
    angles = [0.0, -0.0] + list(rng.uniform(-7.0, 7.0, 5))
    specs = [RotationSpec(axis, angle) for axis in axes for angle in angles]
    for order in (specs, specs[::-1], [specs[i] for i in rng.permutation(len(specs))]):
        _pair_unitary_of.cache_clear()  # each order fills the cache from a new first spec
        for spec in order:
            u = single_qubit_unitary(spec)
            assert _pair_unitary(spec).tobytes() == np.kron(u, u).tobytes(), spec


def test_husimi_grids_of_one_resolution_share_axes_but_not_q():
    first = husimi_grid(bell_state(BellKind.PHI_PLUS), 12, 20)
    q_first = first.q.copy()
    second = husimi_grid(bell_state(BellKind.PSI_PLUS), 12, 20)
    for name in ("theta", "phi", "x", "y"):
        assert getattr(first, name) is getattr(second, name)
    assert not np.shares_memory(first.q, second.q)
    assert np.array_equal(first.q, q_first)
    assert husimi_grid(bell_state(BellKind.PHI_PLUS), 12, 21).phi is not first.phi


def test_husimi_grid_bytes_are_pinned():
    grid = husimi_grid(bell_state(BellKind.PHI_PLUS), 60, 120)
    digests = {name: hashlib.sha256(getattr(grid, name).tobytes()).hexdigest() for name in "qxy"}
    assert digests == {
        "q": "7a26d3008740d213c03a05a507b6798a4e1c484e24e432f529535f0431687904",
        "x": "2c8626d31e421f857a60c371117abbf72328719717e2937e8dc0c167dc31f965",
        "y": "8af8b097277a1afd366149c4da063499b8dcf6339d5133be160fa408be156b55",
    }


def test_default_cavity_is_shared_by_runs_without_a_cavity():
    spec = carvesim.ProtocolSpec("double", BellKind.PSI_PLUS)
    assert _default_model() is _default_model()
    default = run_protocol(spec).state.rho
    explicit = run_protocol(spec, cavity=carvesim.ReflectionModel.from_params()).state.rho
    assert default.tobytes() == explicit.tobytes()


def test_import_fills_no_cache_and_builds_no_reflection_model():
    # the caches are lazy: import time, and so the start of every CLI process,
    # pays for none of them
    src = str(Path(carvesim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import gc, carvesim, carvesim.cli\n"
        "from carvesim import analysis, protocols, states\n"
        "caches = (analysis._husimi_axes, states._pair_unitary_of, protocols._default_model,"
        " states._bell_pair)\n"
        "print([c.cache_info().currsize for c in caches],"
        " sum(isinstance(o, carvesim.ReflectionModel) for o in gc.get_objects()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] 0"
