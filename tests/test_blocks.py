"""The solvers run their per-frame work in blocks of pmace.BLOCK_FRAMES
frames on up to ``workers`` threads. These tests use a grid of more than
one block, the last of them partial, so the threaded path is exercised.
"""

import threading
import warnings

import numpy as np
import pytest

import ptychokit as pk
from ptychokit import pmace, sharp
from ptychokit.fields import NumericalFailure

SOLVERS = ("pmace", "sharp", "sharp_plus")


def instance(grid_dims):
    shape, n_p = (72, 72), 16
    grid = pk.make_scan_grid(shape, n_p, grid_dims, 8)
    x = pk.synth_object(shape, 3)
    probe = pk.synth_probe(n_p, 5)
    noisy = pk.add_poisson_noise(pk.forward_amplitude(x, probe, grid), 1e5, 9)
    return {"grid": grid, "truth": x, "probe": probe, "y": noisy.stack,
            "descale": noisy.scale_factor}


@pytest.fixture(scope="module")
def two_blocks():
    """6x6 = 36 frames: one full block and a partial block of 4 frames."""
    inst = instance((6, 6))
    assert pmace.BLOCK_FRAMES < len(inst["grid"]) < 2 * pmace.BLOCK_FRAMES
    return inst


@pytest.fixture(scope="module")
def one_block():
    inst = instance((3, 3))
    assert len(inst["grid"]) <= pmace.BLOCK_FRAMES
    return inst


def solve(inst, solver, workers, iters=8):
    args = (inst["y"], inst["probe"], inst["grid"])
    kwargs = dict(init=np.ones(inst["truth"].shape, complex), trace_target=inst["truth"],
                  descale=inst["descale"], workers=workers)
    if solver == "pmace":
        params = pk.PmaceParams(alpha=0.1, max_iters=iters)
        recon, rows = pmace.mann_iterate(*args, params, **kwargs)
    else:
        params = pk.SharpParams(beta=0.45, max_iters=iters, variant=solver)
        recon, rows = sharp.sharp_iterate(*args, params, **kwargs)
    return recon, np.array([err for _, err, _ in rows])


def per_frame_operator(solver):
    """(module, name) of the operator each solver calls once per block."""
    return (pmace, "agent_update") if solver == "pmace" else (sharp, "p_a")


def coupling(solver):
    """(module, name) of the operator each solver calls on the whole stack."""
    return (pmace, "consensus") if solver == "pmace" else (sharp, "p_q")


@pytest.mark.parametrize("solver", SOLVERS)
def test_bytes_do_not_depend_on_workers(two_blocks, solver):
    recon1, nrmse1 = solve(two_blocks, solver, workers=1)
    for workers in (2, 3):
        recon, nrmse = solve(two_blocks, solver, workers)
        np.testing.assert_array_equal(recon, recon1)
        np.testing.assert_array_equal(nrmse, nrmse1)


@pytest.mark.parametrize("solver", SOLVERS)
def test_bytes_do_not_depend_on_the_block_size(two_blocks, solver, monkeypatch):
    recon, nrmse = solve(two_blocks, solver, workers=2)
    # one block holding the whole stack is the unsplit iteration
    for frames in (len(two_blocks["grid"]), 5, 1):
        monkeypatch.setattr(pmace, "BLOCK_FRAMES", frames)
        other, other_nrmse = solve(two_blocks, solver, workers=2)
        np.testing.assert_array_equal(other, recon)
        np.testing.assert_array_equal(other_nrmse, nrmse)


@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_value_in_the_partial_block_fails_its_iteration(
    two_blocks, solver, monkeypatch
):
    # one NaN in the last frame, written after the coupling of iteration 3,
    # reaches only the last block before the guard runs
    module, name = coupling(solver)
    original = getattr(module, name)
    calls = []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            out[-1, 0, 0] = np.nan
        return out

    monkeypatch.setattr(module, name, poisoned)
    with pytest.raises(NumericalFailure) as exc:
        solve(two_blocks, solver, workers=2, iters=6)
    assert exc.value.iteration == 3


@pytest.mark.parametrize("solver", SOLVERS)
def test_block_threads_keep_the_callers_floating_point_error_state(two_blocks, solver):
    inst = dict(two_blocks, y=two_blocks["y"].copy())
    inst["y"][-1, 3, 3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure) as exc:
            solve(inst, solver, workers=2)
    assert exc.value.iteration == 1


@pytest.mark.parametrize("solver", SOLVERS)
def test_threads_never_outnumber_blocks(two_blocks, one_block, solver, monkeypatch):
    module, name = per_frame_operator(solver)
    original = getattr(module, name)
    seen = set()

    def recording(*args, **kwargs):
        seen.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    solve(two_blocks, solver, workers=64, iters=3)
    assert 1 <= len(seen) <= 2
    seen.clear()
    solve(one_block, solver, workers=64, iters=3)
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("solver", SOLVERS)
def test_many_workers_on_one_block_give_the_same_bytes(one_block, solver):
    recon1, nrmse1 = solve(one_block, solver, workers=1)
    recon64, nrmse64 = solve(one_block, solver, workers=64)
    np.testing.assert_array_equal(recon64, recon1)
    np.testing.assert_array_equal(nrmse64, nrmse1)
