"""Solver workspace size: the iterate stack, the image and one block buffer
per thread, plus block-sized temporaries, whatever the worker count."""

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
    y = pk.forward_amplitude(pk.synth_object(shape, 7), probe, grid)
    return grid, probe, y


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("solver", ["pmace", "sharp", "sharp_plus"])
def test_solve_holds_fewer_than_two_stacks(wide, solver, workers):
    grid, probe, y = wide
    init = np.ones(grid.image_shape, dtype=np.complex128)
    if solver == "pmace":
        params = pk.PmaceParams(alpha=0.1, max_iters=2)
        solve = pk.mann_iterate
    else:
        params = pk.SharpParams(beta=0.45, max_iters=2, variant=solver)
        solve = pk.sharp_iterate
    tracemalloc.start()
    try:
        solve(y, probe, grid, params, init, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = len(grid) * N_P * N_P * 16
    assert peak < 2 * stack, f"peak {peak / stack:.2f} stacks"
