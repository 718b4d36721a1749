"""The out= contract of the solver operators, and their byte parity with
the forms they replaced.

Every operator the solvers run in place on their workspace must leave its
inputs untouched, with or without ``out=``, and give the same bytes both
ways, whatever the output buffer held before.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ptychokit as pk
from ptychokit.fields import accumulate_stack, extract_stack, scatter_add
from ptychokit.pmace import (
    agent_update,
    consensus,
    phase_factor,
    regularized_reciprocal,
    stitch_weighted,
)
from ptychokit.sharp import p_a, p_q, stitch_frames

from conftest import coupled_stack

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
    image = complex_normal(rng, shape)
    alpha = draw(st.sampled_from([0.0, 0.3, 2.0]))
    return {
        "grid": grid,
        "probe": probe,
        "stack": stack,
        "y": y,
        "image": image,
        "alpha": alpha,
        "coupling": pk.pmace_coupling(probe, grid, 1.25),
        "coupling2": pk.sharp_coupling(probe, grid),
    }


# name -> call taking (problem, out)
OPERATORS = {
    "phase_factor": lambda p, out: phase_factor(p["stack"], out=out),
    "agent_update": lambda p, out: agent_update(
        p["stack"], p["y"], p["probe"], p["alpha"], out=out
    ),
    "consensus": lambda p, out: consensus(p["image"], p["coupling"], p["grid"], out=out),
    "stitch_weighted": lambda p, out: stitch_weighted(
        p["stack"], p["coupling"], p["grid"], out=out
    ),
    "p_a": lambda p, out: p_a(p["stack"], p["y"], out=out),
    "p_q": lambda p, out: p_q(p["image"], p["coupling2"], p["grid"], out=out),
    "stitch_frames": lambda p, out: stitch_frames(
        p["stack"], p["coupling2"], p["grid"], out=out
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
@given(problems(), st.sampled_from(["phase_factor", "p_a"]))
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
        result = transform(a, out=a)
        assert np.shares_memory(result, a)
        assert result.tobytes() == expected.tobytes()


# --- byte parity with the division and two-pass forms the operators replaced ---
#
# Each oracle below is the expression an operator used before it was
# rewritten to make fewer passes over memory. Multiplying by the
# reciprocal 1/b gives the bits of NumPy's complex-by-real division, which
# computes scl = 1/b and then (re + im*0)*scl; the two may differ only in
# the sign of an exact zero.


def bits(a):
    """The bytes of ``a`` with every -0 part read as +0."""
    return (a + 0.0).tobytes()


def phase_factor_by_division(z):
    out = np.empty_like(z)
    az = np.abs(z)
    nonzero = az > 0
    np.divide(z, az, out=out, where=nonzero)
    out[~nonzero] = 0
    return out


def divide_where_covered(image, coverage):
    """image / coverage on the covered region and +0 off it."""
    return np.divide(image, coverage, out=np.zeros_like(image), where=coverage > 0)


def agent_update_by_division(x, y, probe, alpha):
    out = probe * x
    p_a(out, y, out=out)
    out = regularized_reciprocal(probe) * out
    out = alpha * x + out
    return np.divide(out, 1 + alpha, out=out)


@st.composite
def complex_arrays(draw, elements):
    """Complex arrays of up to 3 dimensions whose parts are drawn from ``elements``."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    z = np.empty(shape, dtype=np.complex128)
    z.real = draw(hnp.arrays(np.float64, shape, elements=elements))
    z.imag = draw(hnp.arrays(np.float64, shape, elements=elements))
    return z


# A part is +0 or has magnitude in [1e-100, 1e100]: then no product
# underflows and |z| stays finite, so no zero is formed whose sign could
# differ between the two forms.
MODERATE = st.just(0.0) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100)
# Every finite value, -0 included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(complex_arrays(MODERATE))
def test_phase_factor_has_the_bits_of_the_division(z):
    assert phase_factor(z).tobytes() == phase_factor_by_division(z).tobytes()


@settings(max_examples=200, deadline=None)
@given(complex_arrays(FINITE))
def test_phase_factor_equals_the_division_for_every_finite_input(z):
    with np.errstate(over="ignore", invalid="ignore"):
        assert bits(phase_factor(z)) == bits(phase_factor_by_division(z))


def test_phase_factor_keeps_nan_for_the_nan_guard():
    # the division form mapped NaN to 0 (NaN > 0 is false), hiding it from the guard
    p = phase_factor(np.array([np.nan, 0, 3 + 4j]))
    assert np.isnan(p[0])
    assert p[1] == 0
    np.testing.assert_allclose(p[2], 0.6 + 0.8j, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_agent_update_has_the_bits_of_the_division(p):
    # a dark probe pixel with alpha = 0 gives a signed zero there
    expected = agent_update_by_division(p["stack"], p["y"], p["probe"], p["alpha"])
    result = agent_update(p["stack"], p["y"], p["probe"], p["alpha"])
    assert bits(result) == bits(expected)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_weighted_extract_has_the_bits_of_extract_then_multiply(p):
    image = complex_normal(np.random.default_rng(0), p["grid"].image_shape)
    expected = p["probe"] * extract_stack(image, p["grid"])
    assert extract_stack(image, p["grid"], weight=p["probe"]).tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(problems())
def test_p_q_has_the_bits_of_extract_then_multiply(p):
    image = stitch_frames(p["stack"], p["coupling2"], p["grid"])
    expected = p["probe"] * extract_stack(image, p["grid"])
    assert p_q(image, p["coupling2"], p["grid"]).tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(problems(), st.integers(1, 7), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_couplings_streamed_block_by_block_have_the_whole_stack_bits(p, frames, rho):
    # the solvers' form: blocks scatter-add into one image in order, the image
    # is normalized once, and each block reads its frames back from it; the
    # whole-stack oracle is built from the probe without a Coupling. PMACE's
    # driver also scales the normalized image once by its gain 2 rho, which
    # must read back as 2 rho times each frame of the consensus
    grid, probe, stack = p["grid"], p["probe"], p["stack"]
    blocks = [slice(i, i + frames) for i in range(0, len(grid), frames)]
    grids = [dataclasses.replace(grid, offsets=grid.offsets[k]) for k in blocks]
    for coupling, couple, weight, kappa, illumination, gain in (
        (p["coupling"], consensus, pk.amplitude_power(probe, 1.25), 1.25, None, 2 * rho),
        (p["coupling2"], p_q, np.conj(probe), 2.0, probe, None),
    ):
        whole = divide_where_covered(accumulate_stack(stack, grid, weight=weight),
                                     pk.build_coverage(probe, grid, kappa))
        whole = extract_stack(whole, grid, weight=illumination)
        image = np.zeros(grid.image_shape, dtype=np.complex128)
        for k, g in zip(blocks, grids):
            scatter_add(stack[k], g, coupling.weight, image)
        np.multiply(image, coupling.inverse, out=image)
        streamed = np.concatenate([couple(image, coupling, g) for g in grids])
        assert streamed.tobytes() == whole.tobytes()
        if gain is not None:
            np.multiply(gain, image, out=image)
            for k, g in zip(blocks, grids):
                for j, frame in enumerate(couple(image, coupling, g)):
                    assert frame.tobytes() == np.multiply(gain, whole[k][j]).tobytes()


@settings(max_examples=30, deadline=None)
@given(problems(), st.floats(0.0, 4.0))
def test_couplings_hold_the_bytes_of_the_probe_weights(p, kappa):
    probe, grid = p["probe"], p["grid"]

    def same(a, b):
        assert a.tobytes() == b.tobytes()

    pm = pk.pmace_coupling(probe, grid, kappa)
    cov = pk.build_coverage(probe, grid, kappa)
    same(pm.weight, pk.amplitude_power(probe, kappa))
    same(pm.coverage, cov)
    assert pm.illumination is None
    sh = pk.sharp_coupling(probe, grid)
    cov2 = pk.build_coverage(probe, grid, 2.0)
    same(sh.weight, np.conj(probe))
    same(sh.illumination, probe)
    same(sh.coverage, cov2)
    for coupling, coverage in ((pm, cov), (sh, cov2)):
        # 1/coverage where the coverage is normal, +0 elsewhere, built once per coupling
        expected = np.divide(1, coverage, out=np.zeros_like(coverage),
                             where=coverage >= np.finfo(np.float64).smallest_normal)
        same(coupling.inverse, expected)
        assert coupling.inverse is coupling.inverse


@st.composite
def signed_zero_problems(draw):
    """A problem whose stack has parts of either zero sign and whose probe has dark pixels."""
    p = draw(problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack, probe = p["stack"].copy(), p["probe"].copy()
    for part in (stack.real, stack.imag):
        part[rng.random(stack.shape) < 0.1] = -0.0
        part[rng.random(stack.shape) < 0.1] = 0.0
    probe[rng.random(probe.shape) < 0.2] = 0
    return p["grid"], probe, stack


@settings(max_examples=150, deadline=None)
@given(signed_zero_problems())
def test_stitch_has_the_bytes_of_the_division_where_covered(problem):
    # the product with 1/coverage replaced a where-divide; a scatter-add into
    # a +0 fill makes no -0, so not even the sign of a zero may differ
    grid, probe, stack = problem
    for coupling, weight, kappa in ((pk.pmace_coupling(probe, grid, 1.25),
                                     pk.amplitude_power(probe, 1.25), 1.25),
                                    (pk.sharp_coupling(probe, grid), np.conj(probe), 2.0)):
        expected = divide_where_covered(accumulate_stack(stack, grid, weight=weight),
                                        pk.build_coverage(probe, grid, kappa))
        assert stitch_weighted(stack, coupling, grid).tobytes() == expected.tobytes()


def p_a_by_copy(frames, y):
    out = frames.copy()
    pk.fft2_orthonormal(out, out=out)
    phase_factor(out, out=out)
    np.multiply(y, out, out=out)
    return pk.ifft2_orthonormal(out, out=out)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_p_a_reads_its_frames_once_and_has_the_bits_of_copy_then_transform(p):
    frames = p["stack"]
    before = frames.tobytes()
    expected = p_a_by_copy(frames, p["y"]).tobytes()
    out = np.full(frames.shape, np.nan + 1j * np.nan)
    assert p_a(frames, p["y"], out=out).tobytes() == expected
    assert frames.tobytes() == before
    assert p_a(frames, p["y"], out=frames).tobytes() == expected


@functools.cache
def two_block_instance():
    """Noisy 6x6 grid: one full block of frames and a partial one."""
    shape, n_p = (72, 72), 16
    grid = pk.make_scan_grid(shape, n_p, (6, 6), 8)
    x = pk.synth_object(shape, 3)
    probe = pk.synth_probe(n_p, 5)
    noisy = pk.add_poisson_noise(pk.forward_amplitude(x, probe, grid), 1e5, 9)
    return grid, x, probe, noisy.stack, noisy.scale_factor


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["pmace", "sharp", "sharp_plus"]),
    st.integers(0, 4),
    st.integers(1, 3),
    st.sampled_from([1, 2]),
)
def test_traced_result_has_the_bits_of_the_final_stitch(solver, iters, eval_every, workers):
    # with a trace target the result is the image the last trace row measured;
    # without one it is stitched after the loop
    grid, x, probe, y, descale = two_block_instance()
    init = np.ones(grid.image_shape, dtype=np.complex128)
    if solver == "pmace":
        params = pk.PmaceParams(alpha=0.1, max_iters=iters, eval_every=eval_every)
        solve = pk.mann_iterate
    else:
        params = pk.SharpParams(beta=0.45, max_iters=iters, variant=solver, eval_every=eval_every)
        solve = pk.sharp_iterate
    traced, rows = solve(y, probe, grid, params, init, trace_target=x, descale=descale,
                         workers=workers)
    plain, _ = solve(y, probe, grid, params, init, descale=descale, workers=workers)
    assert traced.tobytes() == plain.tobytes()
    mask = pk.build_coverage(probe, grid, 0) > 0
    assert rows[-1][1] == pk.nrmse_phase_aligned(plain[mask], x[mask])


def three_stack_solve(inst, params, iters):
    """The solvers' updates in the grouping they had with three stacks:

        PMACE:  v <- v + 2 rho (G(2w - v) - w)
        SHARP:  s <- (P_Q(2 beta P_a s + sign beta s) + (1 - 2 beta) P_a s) - sign beta s
    """
    y, probe, grid = inst["y"], inst["probe"], inst["grid"]
    init = np.ones(grid.image_shape, dtype=np.complex128)
    if isinstance(params, pk.PmaceParams):
        alpha, rho = params.alpha, params.rho
        coupling = pk.pmace_coupling(probe, grid, params.kappa)
        v = extract_stack(init, grid)
        for _ in range(iters):
            w = agent_update(v, y, probe, alpha)
            v = v + 2 * rho * (coupled_stack(2 * w - v, coupling, grid) - w)
        return stitch_weighted(v, coupling, grid)
    beta, sign = params.beta, -1.0 if params.variant == "sharp_plus" else 1.0
    coupling = pk.sharp_coupling(probe, grid)
    s = extract_stack(init, grid, weight=probe)
    for _ in range(iters):
        a = p_a(s, y)
        s = (coupled_stack(2 * beta * a + sign * beta * s, coupling, grid) + (1 - 2 * beta) * a
             - sign * beta * s)
    return stitch_frames(s, coupling, grid)


@pytest.mark.parametrize("solver", ["pmace", "sharp", "sharp_plus"])
def test_two_stack_updates_stay_within_rounding_of_the_three_stack_grouping(desk, solver):
    # the two-stack updates add the last two terms in another order; over
    # 100 desk-scale iterations that may move the result by rounding only
    iters = 100
    init = np.ones(desk["grid"].image_shape, dtype=np.complex128)
    if solver == "pmace":
        params = pk.PmaceParams(alpha=0.1, rho=0.5, kappa=1.25, max_iters=iters)
        solve = pk.mann_iterate
    else:
        params = pk.SharpParams(beta=0.45, max_iters=iters, variant=solver)
        solve = pk.sharp_iterate
    recon, _ = solve(desk["y"], desk["probe"], desk["grid"], params, init)
    oracle = three_stack_solve(desk, params, iters)
    assert np.linalg.norm(recon - oracle) / np.linalg.norm(oracle) <= 1e-12
