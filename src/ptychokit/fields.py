"""Complex-field containers, orthonormal 2D Fourier transforms, and patch
projection geometry.

A field is a 2D complex128 ndarray. A scan grid holds the integer top-left
offsets of every probe position; stack extraction and accumulation implement
the patch projector and its adjoint. Coverage maps normalize the solvers'
overlap averages, and frame blocks split per-frame work across threads.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

CFLD_MAGIC = b"CFLD"
CFLD_VERSION = 1
_CFLD_HEADER = struct.Struct("<4sIQQ")
# Frames per block of the per-frame work: 2 MiB at N_p = 64.
BLOCK_FRAMES = 32


class NumericalFailure(RuntimeError):
    """Raised when a solver iterate stops being finite.

    :param iteration: first iteration at which a NaN/Inf appeared.
    """

    def __init__(self, iteration: int):
        super().__init__(f"non-finite values in iterate at iteration {iteration}")
        self.iteration = iteration


def _orthonormal_dft2(f: np.ndarray, inverse: bool, out: np.ndarray | None) -> np.ndarray:
    """The unitary 2D DFT as two NumPy 1D passes, each scaled by 1/sqrt(n).

    Not for speed: into a caller's buffer ``np.fft.fft2`` takes as long.
    The two passes are kept for two reasons. They fix the axis order (-2
    first), and ``np.fft.fft2``, which runs the last axis first, gives other
    bits. And ``out`` may be ``f``: NumPy 2.4's ``np.fft.ifft2(f, out=f)``
    returns a new array and leaves ``f`` as it was.
    """
    if out is None:
        out = np.empty(f.shape, np.complex128)
    transform = np.fft.ifft if inverse else np.fft.fft
    transform(f, axis=-2, norm="ortho", out=out)
    return transform(out, axis=-1, norm="ortho", out=out)


def fft2_orthonormal(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary 2D DFT over the last two axes.

    :param f: 2D field or stack of fields (transform applied per leading index).
    :param out: complex128 array of ``f``'s shape for the result, which
        may be ``f`` itself; the bits do not depend on it.
    :return: transformed complex128 array of the same shape.
    """
    return _orthonormal_dft2(f, False, out)


def ifft2_orthonormal(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`fft2_orthonormal`; same unitarity and ``out`` contract."""
    return _orthonormal_dft2(f, True, out)


@dataclass(frozen=True)
class ScanGrid:
    """Ordered probe positions over an image.

    :param offsets: J (row, col) integer pairs, top-left corner of each patch.
    :param patch_size: side length N_p of the square patches.
    :param image_shape: (N1, N2) of the full image the offsets index into.
    """

    offsets: tuple[tuple[int, int], ...]
    patch_size: int
    image_shape: tuple[int, int]

    def __post_init__(self):
        if len(self.offsets) < 1:
            raise ValueError("scan grid needs at least one offset")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("scan grid offsets must be distinct")
        n = self.patch_size
        n1, n2 = self.image_shape
        for r, c in self.offsets:
            if not (0 <= r and r + n <= n1 and 0 <= c and c + n <= n2):
                raise ValueError(
                    f"offset ({r}, {c}) places a {n}x{n} patch outside "
                    f"a {n1}x{n2} image"
                )

    def __len__(self) -> int:
        return len(self.offsets)


def extract_stack(
    image: np.ndarray, grid: ScanGrid, weight: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Extract all J patches as a (J, N_p, N_p) stack, into ``out`` if given.

    With ``weight`` (N_p, N_p) each patch is copied as ``weight * patch``.
    """
    n = grid.patch_size
    if out is None:
        out = np.empty((len(grid), n, n), dtype=np.complex128)
    for j, (r, c) in enumerate(grid.offsets):
        if weight is None:
            out[j] = image[r : r + n, c : c + n]
        else:
            np.multiply(weight, image[r : r + n, c : c + n], out=out[j])
    return out


def accumulate_stack(
    stack: np.ndarray, grid: ScanGrid, weight: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter-add a (J, N_p, N_p) stack into a zero image.

    With ``weight`` (an (N_p, N_p) array) each patch is multiplied by it,
    as ``weight * stack[j]``, on its way into the image, so no weighted
    copy of the stack is made. ``out`` (complex128 by default) is zeroed
    and receives the sum. The sum runs in fixed index order so the result
    is bit-identical regardless of how the caller parallelized the
    per-patch work.
    """
    if out is None:
        out = np.empty(grid.image_shape, dtype=np.complex128)
    out.fill(0)
    return scatter_add(stack, grid, weight, out)


def scatter_add(
    stack: np.ndarray, grid: ScanGrid, weight: np.ndarray | None, out: np.ndarray,
) -> np.ndarray:
    """:func:`accumulate_stack` into ``out`` as it is, so a stack can be added block by block."""
    n = grid.patch_size
    for j, (r, c) in enumerate(grid.offsets):
        out[r : r + n, c : c + n] += stack[j] if weight is None else weight * stack[j]
    return out


@contextmanager
def frame_blocks(frames: int, workers: int, frame_shape: tuple[int, ...]):
    """Yield (blocks, run, buffer): slices of BLOCK_FRAMES frames covering
    ``frames`` frames, a map that runs a function over them on min(workers,
    blocks) threads, and ``buffer(n)``, the first n frames of the calling
    thread's own complex128 block buffer, sized from the first block.

    Each thread starts with the caller's np.errstate, which is per thread.
    """
    blocks = [slice(i, i + BLOCK_FRAMES) for i in range(0, frames, BLOCK_FRAMES)]
    shape = (min(frames, BLOCK_FRAMES), *frame_shape)
    local = threading.local()

    def buffer(n: int) -> np.ndarray:
        if not hasattr(local, "a"):
            local.a = np.empty(shape, dtype=np.complex128)
        return local.a[:n]

    threads = min(workers, len(blocks))
    err = np.geterr()
    with ThreadPoolExecutor(threads, initializer=lambda: np.seterr(**err)) as pool:
        yield blocks, (pool.map if threads > 1 else map), buffer


def amplitude_power(probe: np.ndarray, kappa: float) -> np.ndarray:
    """Pointwise |probe|^kappa with 0^0 defined as 0.

    The zero convention keeps dark pixels at weight zero for every kappa;
    at kappa = 0 every lit pixel weighs exactly 1, while for kappa > 0 a
    faint lit pixel's weight can underflow to 0 too.
    """
    a = np.abs(probe)
    return np.where(a > 0, a**kappa, 0.0)


def build_coverage(probe: np.ndarray, grid: ScanGrid, kappa: float) -> np.ndarray:
    """|probe|^kappa scatter-added over all offsets (float64): the overlap normalizer's
    diagonal. At kappa = 0 it counts the offsets lighting each pixel, so ``> 0`` is the
    covered region; for kappa > 0 a pixel lit only where |d|^kappa underflows reads 0."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    wk = amplitude_power(probe, kappa)
    coverage = np.empty(grid.image_shape, dtype=np.float64)
    return accumulate_stack(np.broadcast_to(wk, (len(grid), *wk.shape)), grid, out=coverage)


def write_cfld(path, arr: np.ndarray) -> None:
    """Write a 2D complex field in the CFLD binary format.

    Layout: magic "CFLD", version u32, rows u64, cols u64, then rows*cols
    little-endian float64 (real, imag) pairs in row-major order.
    """
    a = np.ascontiguousarray(arr, dtype="<c16")
    if a.ndim != 2:
        raise ValueError(f"CFLD stores 2D fields, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_CFLD_HEADER.pack(CFLD_MAGIC, CFLD_VERSION, a.shape[0], a.shape[1]))
        fh.write(a)


def read_cfld(path) -> np.ndarray:
    """Read a CFLD file back into a complex128 array.

    The file must hold exactly the payload its header declares; a short
    or overlong file raises ValueError before any payload is read.
    """
    with open(path, "rb") as fh:
        header = fh.read(_CFLD_HEADER.size)
        if len(header) != _CFLD_HEADER.size:
            raise ValueError(f"{path}: truncated CFLD header")
        magic, version, rows, cols = _CFLD_HEADER.unpack(header)
        if magic != CFLD_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CFLD_VERSION:
            raise ValueError(f"{path}: unsupported CFLD version {version}")
        payload = os.fstat(fh.fileno()).st_size - _CFLD_HEADER.size
        if payload != rows * cols * 16:
            problem = "truncated CFLD payload" if payload < rows * cols * 16 else (
                f"{payload - rows * cols * 16} bytes after the CFLD payload")
            raise ValueError(f"{path}: {problem} (header declares {rows}x{cols}, "
                             f"file holds {payload} payload bytes)")
        data = np.empty((rows, cols), dtype="<c16")
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{path}: truncated CFLD payload")
    return data.astype(np.complex128, copy=False)
