"""Workspace sizes, whatever the worker count. A solve holds the iterate stack,
the image and one block buffer per thread, plus block-sized temporaries; the
forward model holds its output and one block buffer per thread, and the noise
model its output and one frame."""

import tracemalloc

import numpy as np
import pytest

import ptychokit as pk

J_SIDE, N_P, SPACING = 16, 64, 14


@pytest.fixture(scope="module")
def wide():
    """J = 256 frames of 64², so one complex stack is 16 MiB."""
    shape = (N_P + (J_SIDE - 1) * SPACING,) * 2
    grid = pk.make_scan_grid(shape, N_P, (J_SIDE, J_SIDE), SPACING)
    probe = pk.synth_probe(N_P, 11)
    x = pk.synth_object(shape, 7)
    return grid, probe, pk.forward_amplitude(x, probe, grid), x


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("solver", ["pmace", "sharp", "sharp_plus"])
def test_solve_holds_fewer_than_two_stacks(wide, solver, workers):
    grid, probe, y, _ = wide
    init = np.ones(grid.image_shape, dtype=np.complex128)
    if solver == "pmace":
        params = pk.PmaceParams(alpha=0.1, max_iters=2)
        solve = pk.mann_iterate
    else:
        params = pk.SharpParams(beta=0.45, max_iters=2, variant=solver)
        solve = pk.sharp_iterate
    peak = traced_peak(lambda: solve(y, probe, grid, params, init, workers=workers))
    stack = len(grid) * N_P * N_P * 16
    assert peak < 2 * stack, f"peak {peak / stack:.2f} stacks"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forward_model_holds_fewer_than_two_outputs(wide, workers):
    grid, probe, y, x = wide
    peak = traced_peak(lambda: pk.forward_amplitude(x, probe, grid, workers=workers))
    assert peak < 2 * y.nbytes, f"peak {peak / y.nbytes:.2f} outputs"


@pytest.mark.parametrize("mode", ["global-max", "per-pattern-max"])
def test_noise_model_holds_its_output_and_little_more(wide, mode):
    y = wide[2]
    peak = traced_peak(lambda: pk.add_poisson_noise(y, 1e5, 3, mode=mode))
    assert peak < 1.1 * y.nbytes, f"peak {peak / y.nbytes:.2f} outputs"
