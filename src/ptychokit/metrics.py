"""Phase-aligned NRMSE and convergence-trace bookkeeping."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TRACE_HEADER = ("iter", "nrmse", "seconds")


def nrmse_phase_aligned(
    xhat: np.ndarray, x: np.ndarray, mask: np.ndarray | None = None
) -> float:
    """min over theta of ||xhat - e^{i theta} x|| / ||x|| on masked pixels.

    The minimizing global phase has the closed form
    theta* = arg(sum xhat * conj(x)); when that sum is 0 every theta
    attains the minimum and theta = 0 is used. The sums are NumPy einsum
    reductions, which call no BLAS, so the result does not depend on the
    BLAS thread count.

    :param xhat: reconstruction.
    :param x: reference field, nonzero somewhere on the mask.
    :param mask: boolean region to evaluate over; default: everywhere.
    """
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch: {xhat.shape} vs {x.shape}")
    if mask is None:
        xm = x.ravel()
        xhm = xhat.ravel()
    else:
        xm = x[mask]
        xhm = xhat[mask]
    xm = np.ascontiguousarray(xm, dtype=np.complex128)
    ref_sq = _sum_of_squares(xm)
    if ref_sq == 0:
        raise ValueError("reference field is zero on the evaluation mask")
    residual = np.conj(xm)
    cross = np.einsum("i,i", residual, xhm)
    theta = 0.0 if cross == 0 else np.angle(cross)
    np.multiply(np.exp(1j * theta), xm, out=residual)
    np.subtract(xhm, residual, out=residual)
    return float(np.sqrt(_sum_of_squares(residual)) / np.sqrt(ref_sq))


def _sum_of_squares(v: np.ndarray) -> float:
    """sum |v|^2 of a contiguous complex vector, over its float64 view."""
    parts = v.view(np.float64)
    return np.einsum("i,i", parts, parts)


def write_trace_csv(path, rows) -> None:
    """Write (iteration, nrmse, seconds) rows with the standard header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for it, err, sec in rows:
            writer.writerow([it, repr(float(err)), repr(float(sec))])


def read_trace_csv(path) -> list[tuple[int, float, float]]:
    """Read rows written by :func:`write_trace_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header {header}")
        return [(int(r[0]), float(r[1]), float(r[2])) for r in reader]

