"""The out= contract of the solver operators.

Every operator the solvers run in place on their workspace must leave its
inputs untouched, with or without ``out=``, and give the same bytes both
ways, whatever the output buffer held before.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ptychokit as pk
from ptychokit.pmace import agent_update, consensus, phase_factor, stitch_weighted
from ptychokit.sharp import p_a, p_q, stitch_frames

# (image shape, patch size, grid dims, spacing); the second and third
# leave image pixels outside every patch.
GEOMETRIES = [
    ((16, 16), 8, (2, 2), 8),
    ((20, 18), 8, (3, 2), 5),
    ((9, 9), 4, (2, 3), 2),
]


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def problems(draw):
    shape, n, dims, spacing = draw(st.sampled_from(GEOMETRIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = pk.make_scan_grid(shape, n, dims, spacing)
    probe = complex_normal(rng, (n, n))
    if draw(st.booleans()):  # a dark probe border leaves covered-but-unlit pixels
        probe[0, :] = 0
        probe[:, -1] = 0
    stack = complex_normal(rng, (len(grid), n, n))
    stack[rng.random(stack.shape) < 0.1] = 0  # phase(0) = 0 must be written, not left
    y = np.abs(complex_normal(rng, stack.shape))
    alpha = draw(st.sampled_from([0.0, 0.3, 2.0]))
    return {
        "grid": grid,
        "probe": probe,
        "stack": stack,
        "y": y,
        "alpha": alpha,
        "cov": pk.build_coverage(probe, grid, 1.25),
        "cov2": pk.build_coverage(probe, grid, 2.0),
    }


# name -> call taking (problem, out)
OPERATORS = {
    "phase_factor": lambda p, out: phase_factor(p["stack"], out=out),
    "agent_update": lambda p, out: agent_update(
        p["stack"], p["y"], p["probe"], p["alpha"], out=out
    ),
    "consensus": lambda p, out: consensus(p["stack"], p["probe"], p["cov"], p["grid"], out=out),
    "stitch_weighted": lambda p, out: stitch_weighted(
        p["stack"], p["probe"], p["cov"], p["grid"], out=out
    ),
    "p_a": lambda p, out: p_a(p["stack"], p["y"], out=out),
    "p_q": lambda p, out: p_q(p["stack"], p["probe"], p["grid"], p["cov2"], out=out),
    "stitch_frames": lambda p, out: stitch_frames(
        p["stack"], p["probe"], p["cov2"], p["grid"], out=out
    ),
}
IMAGE_OUTPUT = {"stitch_weighted", "stitch_frames"}


def input_bytes(p):
    return {k: v.tobytes() for k, v in p.items() if isinstance(v, np.ndarray)}


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from(sorted(OPERATORS)))
def test_inputs_untouched_and_out_matches_fresh_result(p, name):
    op = OPERATORS[name]
    before = input_bytes(p)
    fresh = op(p, None)
    assert input_bytes(p) == before
    shape = p["grid"].image_shape if name in IMAGE_OUTPUT else p["stack"].shape
    out = np.full(shape, np.nan + 1j * np.nan)
    result = op(p, out)
    assert result is out
    assert input_bytes(p) == before
    assert out.tobytes() == fresh.tobytes()


@settings(max_examples=20, deadline=None)
@given(problems(), st.sampled_from(["phase_factor", "consensus", "p_a", "p_q"]))
def test_operators_documented_in_place_accept_out_as_input(p, name):
    op = OPERATORS[name]
    fresh = op(p, None)
    result = op(p, p["stack"])
    assert result is p["stack"]
    assert result.tobytes() == fresh.tobytes()


def test_in_place_transforms_match_out_of_place():
    rng = np.random.default_rng(0)
    for transform in (pk.fft2_orthonormal, pk.ifft2_orthonormal):
        a = complex_normal(rng, (3, 8, 8))
        expected = transform(a)
        result = transform(a, overwrite_x=True)
        assert np.shares_memory(result, a)
        assert result.tobytes() == expected.tobytes()
