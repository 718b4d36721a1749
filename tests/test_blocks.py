"""The solvers run their per-frame work in blocks of fields.BLOCK_FRAMES
frames on up to ``workers`` threads, and each block adds its coupling input
into the image when its turn in block order comes. These tests use grids of
more than one block, the last of them partial, so the threaded path and the
turn order are exercised.
"""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptychokit as pk
from ptychokit import fields, pmace, sharp
from ptychokit.fields import NumericalFailure

SOLVERS = ("pmace", "sharp", "sharp_plus")


def instance(grid_dims, shape=(72, 72)):
    n_p = 16
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
    assert fields.BLOCK_FRAMES < len(inst["grid"]) < 2 * fields.BLOCK_FRAMES
    return inst


def many_blocks_instance():
    """12x12 = 144 frames: four full blocks and a partial block of 16 frames,
    more blocks than threads, so blocks queue for their turn."""
    return instance((12, 12), shape=(104, 104))


@pytest.fixture(scope="module")
def many_blocks():
    inst = many_blocks_instance()
    assert len(inst["grid"]) % fields.BLOCK_FRAMES and len(inst["grid"]) > 4 * fields.BLOCK_FRAMES
    return inst


@pytest.fixture(scope="module")
def one_block():
    inst = instance((3, 3))
    assert len(inst["grid"]) <= fields.BLOCK_FRAMES
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
    """(module, name) of the operator that reads each block's coupled frames
    back from the iteration's image; each solver calls it once per block,
    and once on the initial image for the starting stack."""
    return (pmace, "consensus") if solver == "pmace" else (sharp, "p_q")


def raising_on_block(solver, monkeypatch, y, start):
    """Make the per-frame operator raise on the block whose amplitudes start
    at frame ``start`` of ``y``."""
    module, name = per_frame_operator(solver)
    original = getattr(module, name)

    def failing(*args, **kwargs):
        if args[1].ctypes.data == y[start].ctypes.data:
            raise RuntimeError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


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
        monkeypatch.setattr(fields, "BLOCK_FRAMES", frames)
        other, other_nrmse = solve(two_blocks, solver, workers=2)
        np.testing.assert_array_equal(other, recon)
        np.testing.assert_array_equal(other_nrmse, nrmse)


@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_value_in_the_partial_block_fails_its_iteration(
    two_blocks, solver, monkeypatch
):
    # one NaN in the last frame of the partial block's coupled frames of
    # iteration 3 reaches only that block before the guard runs
    module, name = coupling(solver)
    original = getattr(module, name)
    partial = len(two_blocks["grid"]) % fields.BLOCK_FRAMES
    calls = []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        if len(out) == partial:
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
def test_threads_never_outnumber_blocks(two_blocks, one_block, many_blocks, solver, monkeypatch):
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
    # nor workers: five blocks on three threads, and none started for one worker
    seen.clear()
    solve(many_blocks, solver, workers=3, iters=2)
    assert 1 <= len(seen) <= 3
    seen.clear()
    before = threading.active_count()
    solve(many_blocks, solver, workers=1, iters=2)
    assert seen == {threading.get_ident()} and threading.active_count() == before


@pytest.mark.parametrize("solver", SOLVERS)
def test_many_workers_on_one_block_give_the_same_bytes(one_block, solver):
    recon1, nrmse1 = solve(one_block, solver, workers=1)
    recon64, nrmse64 = solve(one_block, solver, workers=64)
    np.testing.assert_array_equal(recon64, recon1)
    np.testing.assert_array_equal(nrmse64, nrmse1)


@pytest.mark.parametrize("solver", SOLVERS)
def test_turn_order_keeps_the_bytes_over_many_blocks(many_blocks, solver, monkeypatch):
    recon1, nrmse1 = solve(many_blocks, solver, workers=1)
    # frequent thread switches make blocks finish out of order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 3, 64):
            recon, nrmse = solve(many_blocks, solver, workers)
            np.testing.assert_array_equal(recon, recon1)
            np.testing.assert_array_equal(nrmse, nrmse1)
        for frames in (1, 5):
            monkeypatch.setattr(fields, "BLOCK_FRAMES", frames)
            recon, nrmse = solve(many_blocks, solver, workers=3)
            np.testing.assert_array_equal(recon, recon1)
            np.testing.assert_array_equal(nrmse, nrmse1)
    finally:
        sys.setswitchinterval(interval)


# Runs in a child process: a block left waiting for its turn would keep the
# solve, and the interpreter's exit, from returning, so the child is killed.
FAILING_SOLVE = """
import sys, threading
import pytest
from ptychokit import fields
from test_blocks import many_blocks_instance, raising_on_block, solve

solver, workers = sys.argv[1], int(sys.argv[2])
inst = many_blocks_instance()
# the third of five blocks: earlier blocks hold the turn, later ones wait for it
raising_on_block(solver, pytest.MonkeyPatch(), inst["y"], 2 * fields.BLOCK_FRAMES)
try:
    solve(inst, solver, workers, iters=3)
except RuntimeError as exc:
    print(exc, threading.active_count())
"""


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("solver", SOLVERS)
def test_failure_in_a_middle_block_propagates_and_frees_every_thread(solver, workers):
    env = dict(os.environ)
    src = str(Path(pk.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FAILING_SOLVE, solver, str(workers)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the failure reached the caller, and only the calling thread is left
    assert proc.stdout.split() == ["injected", "1"]
