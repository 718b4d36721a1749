"""PMACE solver: probe-weighted proximal agents, a probe-exponent consensus
operator, and the Mann iteration that drives their composition to a fixed
point.

The agents act per probe position on a stack of image patches,

    F_j(x_j) = (alpha x_j + D^reginv F*(y_j phase(F D x_j))) / (1 + alpha),

pulling each patch toward agreement with its measured amplitudes while
alpha (a noise-to-signal ratio) damps the step. The consensus operator
re-extracts every patch from the |d|^kappa-weighted average image, making
the stack consistent. The Mann loop relaxes the reflected composition
T = (2G - I)(2F - I) with weight rho.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property
import numpy as np

from .fields import (
    NumericalFailure,
    ScanGrid,
    accumulate_stack,
    amplitude_power,
    build_coverage,
    extract_stack,
    fft2_orthonormal,
    frame_blocks,
    ifft2_orthonormal,
    scatter_add,
)
from .metrics import nrmse_phase_aligned

RECIPROCAL_EPS_FRAC = 1e-6


@dataclass(frozen=True)
class PmaceParams:
    """Solver parameters.

    :param alpha: noise-to-signal ratio weighting the current estimate in
        the agent update; 0 means pure data fitting.
    :param rho: Mann averaging weight in (0, 1); changes the convergence
        rate but not the noise-free solution.
    :param kappa: probe amplitude exponent for the consensus weights.
    :param max_iters: exact number of iterations to run.
    :param eval_every: trace recording period in iterations.
    """

    alpha: float = 0.0
    rho: float = 0.5
    kappa: float = 1.25
    max_iters: int = 100
    eval_every: int = 1

    def __post_init__(self):
        # NaN fails every comparison, so each check is written to reject it
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 <= self.kappa < np.inf:
            raise ValueError("kappa must be finite and nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


def phase_factor(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise z/|z| with the convention phase(0) = 0; NaN stays NaN.

    z * (1/|z|) has the bits of NumPy's z/|z| up to the sign of a zero.
    ``out`` may be ``z`` itself.
    """
    inv = np.abs(z)
    np.divide(1.0, inv, out=inv, where=inv > 0)
    return np.multiply(z, inv, out=out)


def regularized_reciprocal(probe: np.ndarray) -> np.ndarray:
    """conj(d) / (|d|^2 + eps^2) with eps = 1e-6 * max|d|.

    Equals 1/d wherever the probe is meaningfully illuminated and stays
    finite (near zero) on the dark exterior, so the agent update is total.
    """
    a = np.abs(probe)
    eps = RECIPROCAL_EPS_FRAC * a.max()
    return np.conj(probe) / (a**2 + eps**2)


def p_a(
    frames: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fourier-magnitude projection: F*(y phase(F s)) per frame.

    The forward transform reads ``frames`` and writes ``out``, which may be
    ``frames`` itself; the rest runs in place in ``out``.
    """
    f = fft2_orthonormal(frames, out=out)
    phase_factor(f, out=f)
    np.multiply(y, f, out=f)
    return ifft2_orthonormal(f, out=f)


def agent_update(
    x: np.ndarray,
    y: np.ndarray,
    probe: np.ndarray,
    alpha: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Probe-weighted proximal agent applied to a patch or patch stack.

    Interpolates between the input and the data-fitting point
    D^reginv p_a(D x, y) with weights alpha/(1+alpha) and 1/(1+alpha).
    The Fourier-side work runs in place in ``out``.

    :param x: (N_p, N_p) patch or (J, N_p, N_p) stack.
    :param y: measured amplitudes with matching shape.
    :param out: complex128 array of x's shape for the result; must not
        share memory with x.
    """
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    np.multiply(probe, x, out=out)
    p_a(out, y, out=out)
    np.multiply(regularized_reciprocal(probe), out, out=out)
    np.add(alpha * x, out, out=out)
    return np.multiply(out, 1 / (1 + alpha), out=out)


@dataclass(frozen=True, repr=False, eq=False)
class Coupling:
    """The probe weights of one overlap average, from :func:`pmace_coupling` or
    ``sharp.sharp_coupling``: scatter weight, coverage, re-illumination (1 if None)."""

    weight: np.ndarray
    coverage: np.ndarray
    illumination: np.ndarray | None = None

    @cached_property
    def inverse(self) -> np.ndarray:
        """1/coverage on the covered region and +0 off it, built on first use."""
        return np.divide(1.0, self.coverage, out=np.zeros_like(self.coverage),
                         where=self.coverage > 0)


def pmace_coupling(probe: np.ndarray, grid: ScanGrid, kappa: float) -> Coupling:
    """PMACE's consensus G: weights |d|^kappa, their coverage, no re-illumination."""
    return Coupling(amplitude_power(probe, kappa), build_coverage(probe, grid, kappa))


def stitch_weighted(
    stack: np.ndarray, coupling: Coupling, grid: ScanGrid, out: np.ndarray | None = None,
) -> np.ndarray:
    """The image a (J, N_p, N_p) stack couples to: the weighted scatter-add
    times the coupling's inverse coverage. Uncovered pixels are 0 unless a
    weighted frame value is not finite, which leaves NaN there (0 * inf).

    :param out: complex128 image to write the result into.
    """
    image = accumulate_stack(stack, grid, weight=coupling.weight, out=out)
    return np.multiply(image, coupling.inverse, out=image)


def consensus(
    image: np.ndarray, coupling: Coupling, grid: ScanGrid, out: np.ndarray | None = None,
) -> np.ndarray:
    """The patches at ``grid``'s positions read back from ``image``, re-illuminated.

    Applied to :func:`stitch_weighted`'s image of a stack, this is the
    projection onto mutually consistent stacks (PMACE's G, SHARP's P_Q).
    """
    return extract_stack(image, grid, weight=coupling.illumination, out=out)


def check_solver_inputs(
    y: np.ndarray, probe: np.ndarray, grid: ScanGrid, init: np.ndarray
) -> None:
    """Reject solver inputs that do not fit the grid, before any work."""
    n = grid.patch_size
    if init.shape != grid.image_shape:
        raise ValueError(f"init shape {init.shape} does not match image {grid.image_shape}")
    if y.shape != (len(grid), n, n):
        raise ValueError(f"amplitude stack shape {y.shape} does not match grid "
                         f"({len(grid)}, {n}, {n})")
    if probe.shape != (n, n):
        raise ValueError(f"probe shape {probe.shape} does not match patch size ({n}, {n})")
    if not np.any(probe):
        raise ValueError("probe is zero everywhere")


def iterate_stack(
    step, couple, stitch, coupling: Coupling, gain, init: np.ndarray, y: np.ndarray,
    grid: ScanGrid, params, trace_target: np.ndarray | None, descale: float, workers: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """The loop both solvers share: frame blocks, streamed coupling, trace and NaN guard.

    ``couple`` and ``stitch`` are :func:`consensus` and :func:`stitch_weighted`
    under the solver's own names. The stack s = ``couple(init, coupling, grid)``
    is the only stack; it is updated in place. On each of the frame blocks k
    an iteration runs ``step(s[k], a, y[k])``, which leaves the coupling's
    input in the thread's block buffer a and the rest of the update in s[k].
    Each buffer is weighted in place and stitched into the image in block
    order. The image is multiplied by the coupling's inverse coverage (a
    non-finite weighted value leaves NaN on uncovered pixels too) and,
    unless ``gain`` is None, by ``gain`` once; each block then adds
    ``couple(image, coupling, block_grid, out=a)`` to s[k] and runs the NaN
    guard. Blocks run on min(workers, blocks) threads; the image is summed
    in frame order, so results do not depend on ``workers``. ``stitch(s,
    coupling, grid, out=image)`` gives the result and the image whose NRMSE
    is traced.
    """
    s = couple(init, coupling, grid)
    image = np.empty(grid.image_shape, dtype=np.complex128)
    start = time.perf_counter()
    rows: list[tuple[int, float, float]] = []

    def step_block(k: slice, block_grid: ScanGrid, turn, next_turn) -> None:
        a = buffer(len(s[k]))
        try:
            step(s[k], a, y[k])
            np.multiply(coupling.weight, a, out=a)
            turn.wait()
            scatter_add(a, block_grid, None, image)
        finally:  # the turn passes on after a failure too, so no later block waits forever
            turn.wait()
            next_turn.set()

    def read_back_block(k: slice, block_grid: ScanGrid) -> bool:
        np.add(s[k], couple(image, coupling, block_grid, out=buffer(len(s[k]))), out=s[k])
        return bool(np.isfinite(s[k]).all())

    def descaled_image() -> np.ndarray:
        return np.multiply(stitch(s, coupling, grid, out=image), 1 / descale, out=image)

    covered = coupling.coverage > 0
    target = None if trace_target is None else trace_target[covered]

    def record(iteration: int) -> None:
        err = float("nan")
        if target is not None:
            err = nrmse_phase_aligned(descaled_image()[covered], target)
        rows.append((iteration, err, time.perf_counter() - start))

    with frame_blocks(len(s), workers, s.shape[1:]) as (blocks, run, buffer):
        grids = [replace(grid, offsets=grid.offsets[k]) for k in blocks]
        record(0)
        for t in range(1, params.max_iters + 1):
            image.fill(0)
            turns = [threading.Event() for _ in range(len(blocks) + 1)]
            turns[0].set()
            list(run(step_block, blocks, grids, turns, turns[1:]))
            np.multiply(image, coupling.inverse, out=image)
            if gain is not None:
                np.multiply(gain, image, out=image)
            if not all(list(run(read_back_block, blocks, grids))):
                raise NumericalFailure(t)
            if t % params.eval_every == 0 or t == params.max_iters:
                record(t)
    # the last iteration is always recorded, so with a target image holds the result
    return (image if target is not None else descaled_image()), rows


def mann_iterate(
    y: np.ndarray, probe: np.ndarray, grid: ScanGrid, params: PmaceParams, init: np.ndarray,
    trace_target: np.ndarray | None = None, descale: float = 1.0, workers: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Run the PMACE Mann iteration and return (reconstruction, trace).

    The loop body per iteration is

        w <- F(v);  z <- G(2w - v);  v <- (v - 2 rho w) + 2 rho z

    starting from v_j = P_j(init), with w and z in a block buffer; 2 rho z
    is read back from the consensus image scaled once by 2 rho. The
    reconstruction is the weighted back-projection of the final v, divided
    by `descale` (the simulator's amplitude scale factor for noisy data; 1
    for noise-free data). The trace records phase-aligned NRMSE against
    `trace_target` (after the same de-scaling) over the probe-covered region
    every `eval_every` iterations plus iterations 0 and max_iters; without
    a target the NRMSE column is NaN.

    Raises :class:`NumericalFailure` if an iterate stops being finite.
    """
    check_solver_inputs(y, probe, grid, init)
    coupling = pmace_coupling(probe, grid, params.kappa)

    def step(v, a, y):
        t = np.multiply(2 * params.rho, agent_update(v, y, probe, params.alpha, out=a))
        np.subtract(np.multiply(2, a, out=a), v, out=a)
        np.subtract(v, t, out=v)

    return iterate_stack(
        step, consensus, stitch_weighted, coupling, 2 * params.rho, init, y, grid, params,
        trace_target, descale, workers,
    )
