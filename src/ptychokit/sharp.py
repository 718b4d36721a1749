"""SHARP and SHARP+ solvers over frame stacks s_j = d * P_j x.

Both iterate a relaxed combination of two projections: P_a replaces each
frame's Fourier magnitudes with the measured ones, and P_Q makes the
overlapping frames consistent with a single image through a
|d|^2-weighted back-projection. The two variants differ only in the sign
of the beta (P_Q - I) term, which is what the comparison here isolates:

    sharp_plus:  s <- 2 beta P_Q P_a s + (1 - 2 beta) P_a s - beta (P_Q - I) s
    sharp:       s <- 2 beta P_Q P_a s + (1 - 2 beta) P_a s + beta (P_Q - I) s

P_Q is linear, so each update applies it once, to 2 beta P_a s +- beta s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    CoverageMap,
    ScanGrid,
    accumulate_stack,
    build_coverage,
    divide_where_covered,
    extract_stack,
)
from .pmace import check_solver_inputs, iterate_stack, p_a

VARIANTS = ("sharp", "sharp_plus")


@dataclass(frozen=True)
class SharpParams:
    """Solver parameters.

    :param beta: relaxation weight in (0, 1).
    :param max_iters: exact number of iterations to run.
    :param variant: "sharp" or "sharp_plus" (sign of the beta (P_Q - I) term).
    :param eval_every: trace recording period in iterations.
    """

    beta: float = 0.5
    max_iters: int = 100
    variant: str = "sharp_plus"
    eval_every: int = 1

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


def stitch_frames(
    frames: np.ndarray,
    probe: np.ndarray,
    coverage2: CoverageMap,
    grid: ScanGrid,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Image estimate (sum_k P_k^t |d|^2)^{-1} sum_j P_j^t conj(d) s_j.

    :param coverage2: coverage map built with kappa = 2.
    :param out: complex128 image to write the result into.
    """
    image = accumulate_stack(frames, grid, weight=np.conj(probe), out=out)
    return divide_where_covered(image, coverage2, out=image)


def p_q(
    frames: np.ndarray,
    probe: np.ndarray,
    grid: ScanGrid,
    coverage2: CoverageMap | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Consistency projection: back-project, normalize, re-illuminate.

    ``out`` may be ``frames`` itself.
    """
    if coverage2 is None:
        coverage2 = build_coverage(probe, grid, 2.0)
    image = stitch_frames(frames, probe, coverage2, grid)
    out = extract_stack(image, grid, out=out)
    return np.multiply(probe, out, out=out)


def block_steps(beta: float, variant: str):
    """(first, second): the per-block halves of one in-place SHARP update.

        first(s, a, b, y):  a <- P_a s;  s <- sign beta s;  b <- 2 beta a + s
        second(s, a, b):    s <- b + (1 - 2 beta) a - s

    With b <- P_Q(b) between them this is s <- P_Q(2 beta P_a s + sign beta s)
    + (1 - 2 beta) P_a s - sign beta s, with sign -1 for SHARP+ and +1 for
    SHARP. Each half works on any run of frames s, a, b and y share.
    """
    sign = -1.0 if variant == "sharp_plus" else 1.0

    def first(s, a, b, y):
        p_a(s, y, out=a)
        np.multiply(sign * beta, s, out=s)
        np.multiply(2 * beta, a, out=b)
        np.add(b, s, out=b)

    def second(s, a, b):
        np.multiply(1 - 2 * beta, a, out=a)
        np.add(b, a, out=b)
        np.subtract(b, s, out=s)

    return first, second


def sharp_iterate(
    y: np.ndarray,
    probe: np.ndarray,
    grid: ScanGrid,
    params: SharpParams,
    init: np.ndarray,
    trace_target: np.ndarray | None = None,
    descale: float = 1.0,
    workers: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Run the selected SHARP variant and return (reconstruction, trace).

    Frames start as s_j = probe * P_j(init). The reconstruction is the
    weighted back-projection of the final frames divided by `descale`;
    trace semantics match the PMACE solver (rows at iteration 0, every
    `eval_every`, and max_iters; NRMSE against the de-scaled target).

    Raises :class:`NumericalFailure` if an iterate stops being finite.
    """
    check_solver_inputs(y, probe, grid, init)
    coverage2 = build_coverage(probe, grid, 2.0)
    first, second = block_steps(params.beta, params.variant)

    def couple(b):
        p_q(b, probe, grid, coverage2, out=b)

    frames = extract_stack(init, grid)
    np.multiply(probe, frames, out=frames)
    return iterate_stack(
        first, couple, second, stitch_frames, frames, y, coverage2,
        probe, grid, params, trace_target, descale, workers,
    )
