"""Synthetic objects and probes, the far-field forward model, and Poisson
measurement simulation.

The forward model takes a complex transmittance image x, multiplies each
scanned patch by the probe, and records far-field amplitudes
y_j = |F(d * x_j)| under the orthonormal 2D DFT. Noisy data replace the
intensities with Poisson draws scaled to a peak photon rate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fields import (
    ScanGrid,
    extract_stack,
    fft2_orthonormal,
    frame_blocks,
    read_cfld,
    write_cfld,
)

NORMALIZATION_MODES = ("global-max", "per-pattern-max")
# NumPy's largest Poisson mean; r_p is the largest mean add_poisson_noise draws.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def make_scan_grid(
    image_shape: tuple[int, int],
    probe_size: int,
    grid_dims: tuple[int, int],
    spacing: int,
) -> ScanGrid:
    """Centered row-major raster grid of probe positions.

    The grid bounding box is centered in the image, rounding the margin
    down when the leftover is odd.

    :param image_shape: (N1, N2) image dimensions.
    :param probe_size: patch side length N_p.
    :param grid_dims: (rows, cols) of probe positions.
    :param spacing: pixel step between adjacent positions (0 only for one position).
    """
    if spacing < 0 or (spacing == 0 and grid_dims[0] * grid_dims[1] > 1):
        raise ValueError(f"spacing must be positive, or 0 for a single position; got "
                         f"{spacing} for a {grid_dims[0]}x{grid_dims[1]} grid")
    span_r = (grid_dims[0] - 1) * spacing + probe_size
    span_c = (grid_dims[1] - 1) * spacing + probe_size
    if span_r > image_shape[0] or span_c > image_shape[1]:
        raise ValueError(
            f"{grid_dims[0]}x{grid_dims[1]} grid with spacing {spacing} and "
            f"patch {probe_size} spans {span_r}x{span_c}, exceeding "
            f"{image_shape[0]}x{image_shape[1]}"
        )
    m_r = (image_shape[0] - span_r) // 2
    m_c = (image_shape[1] - span_c) // 2
    offsets = tuple(
        (m_r + i * spacing, m_c + j * spacing)
        for i in range(grid_dims[0])
        for j in range(grid_dims[1])
    )
    return ScanGrid(offsets=offsets, patch_size=probe_size, image_shape=tuple(image_shape))


def _smooth_unit_field(rng: np.random.Generator, shape, cutoff: float) -> np.ndarray:
    """Band-limited random field min-max normalized to [0, 1]."""
    g = rng.standard_normal(shape)
    fr = np.fft.fftfreq(shape[0])[:, None]
    fc = np.fft.rfftfreq(shape[1])[None, :]
    lowpass = np.exp(-(fr**2 + fc**2) / (2 * cutoff**2))
    s = np.fft.irfft2(np.fft.rfft2(g) * lowpass, s=shape)
    return (s - s.min()) / (s.max() - s.min())


def synth_object(shape: tuple[int, int], seed: int) -> np.ndarray:
    """Deterministic smooth complex transmittance image.

    Amplitude lies in [0.5, 1.0] and phase in [-pi/2, pi/2]; both are
    random fields band-limited by a Gaussian of width 1/16 of the full
    band, so recovery from overlapping patches is well-posed.

    :param shape: (N1, N2) image dimensions.
    :param seed: generator seed; equal seeds give identical images.
    """
    rng = np.random.default_rng(seed)
    amp = 0.5 + 0.5 * _smooth_unit_field(rng, shape, 1 / 16)
    pha = -np.pi / 2 + np.pi * _smooth_unit_field(rng, shape, 1 / 16)
    return amp * np.exp(1j * pha)


def synth_probe(size: int, seed: int) -> np.ndarray:
    """Deterministic circular-aperture probe with quadratic phase.

    Amplitude is 1 out to radius 0.4*size, rolls off smoothly (raised
    cosine down to a floor of 0.25) over a band of 0.05*size, and is
    exactly 0 beyond the aperture stop; all of it lies under a Gaussian
    envelope exp(-(r / 0.8 size)^2). Every pixel inside the aperture keeps
    at least 0.25 of the envelope's amplitude, which keeps the weighted
    consensus operators well conditioned at patch edges. Phase is a seeded
    quadratic form: isotropic defocus of pi*[0.75, 1.25) radians at the
    aperture radius plus astigmatism of up to pi/4 radians.

    :param size: probe side length, at least 8.
    :param seed: generator seed.
    """
    if size < 8:
        raise ValueError("probe size must be at least 8")
    rng = np.random.default_rng(seed)
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    u = xx - c
    v = yy - c
    r = np.hypot(u, v)
    radius = 0.4 * size
    band = 0.05 * size
    edge = np.where(
        r <= radius,
        1.0,
        np.where(
            r < radius + band,
            0.25 + 0.75 * 0.5 * (1 + np.cos(np.pi * (r - radius) / band)),
            0.0,
        ),
    )
    envelope = np.exp(-((r / (0.8 * size)) ** 2))
    amp = envelope * edge
    defocus = np.pi * (0.75 + 0.5 * rng.random())
    astig = np.pi / 4 * (rng.random() - 0.5) * 2
    phase = defocus * (r / radius) ** 2 + astig * (u**2 - v**2) / radius**2
    return amp * np.exp(1j * phase)


def forward_amplitude(
    x: np.ndarray, probe: np.ndarray, grid: ScanGrid, workers: int = 1
) -> np.ndarray:
    """Noise-free measured amplitudes y_j = |F(probe * P_j x)| for all j.

    Each of the solvers' frame blocks is extracted into its thread's block
    buffer and transformed there, on min(workers, blocks) threads, so only
    the output is stack-sized; each frame's bits do not depend on ``workers``.

    :return: (J, N_p, N_p) nonnegative float64 stack.
    """
    out = np.empty((len(grid), *probe.shape))

    def block(k: slice) -> None:
        a = extract_stack(x, replace(grid, offsets=grid.offsets[k]), probe, buffer(len(out[k])))
        np.abs(fft2_orthonormal(a, out=a), out=out[k])

    with frame_blocks(len(out), workers, probe.shape) as (blocks, run, buffer):
        list(run(block, blocks))
    return out


@dataclass(frozen=True)
class NoisyAmplitudes:
    """Poisson-noised amplitude stack in scaled-count units.

    :param stack: noisy amplitudes, sqrt of sampled photon counts.
    :param scale_factor: sqrt(r_p / M); reconstructions from this stack
        come out multiplied by this factor and must be de-scaled before
        comparison against the unscaled ground truth.
    """

    stack: np.ndarray
    scale_factor: float


def check_rate(r_p: float) -> None:
    """Refuse a peak photon rate outside 0 < r_p <= :data:`POISSON_LAM_MAX`."""
    if not 0 < r_p <= POISSON_LAM_MAX:  # written so that NaN fails too
        raise ValueError(f"peak photon rate r_p must satisfy 0 < r_p <= {POISSON_LAM_MAX!r} "
                         f"(NumPy's Poisson limit), got {r_p!r}")


def add_poisson_noise(
    clean: np.ndarray, r_p: float, seed: int, mode: str = "global-max"
) -> NoisyAmplitudes:
    """Replace intensities with Poisson draws at peak photon rate r_p.

    Each pattern's intensity is scaled so the reference maximum receives
    mean r_p photons: lambda = y^2 / M * r_p, where M is the maximum
    intensity over the whole stack (mode "global-max", default) or over
    each pattern separately (mode "per-pattern-max"). Output amplitudes
    are square roots of the sampled counts.

    Pattern j draws from its own generator stream derived from
    (seed, j), so results do not depend on evaluation order. Each pattern's
    lambda is formed in its own output frame. A pair whose scale factor
    sqrt(r_p / max y^2) overflows to inf or underflows to 0 is refused
    before any draw.
    """
    check_rate(r_p)
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    y = np.asarray(clean, dtype=np.float64)
    # squaring is monotone in |y|, so this is each pattern's max(y**2), bit for bit
    peak = np.square(np.maximum(y.max(axis=(1, 2)), -y.min(axis=(1, 2))))
    ref = np.full(len(y), peak.max()) if mode == "global-max" else peak
    top = float(peak.max())
    # Python floats: an overflowing quotient is inf, an underflowing one 0, with no warning
    scale = float(np.sqrt(float(r_p) / top)) if top > 0 else 1.0
    if not 0 < scale < np.inf:
        raise ValueError(f"scale factor sqrt(r_p / peak) is not a positive finite number "
                         f"for r_p = {r_p!r} and peak intensity {top!r}")
    out = np.zeros_like(y)
    for j, lam in enumerate(out):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        if ref[j] > 0:
            np.multiply(np.divide(np.square(y[j], out=lam), ref[j], out=lam), r_p, out=lam)
        lam[...] = np.sqrt(rng.poisson(lam).astype(np.float64))
    return NoisyAmplitudes(stack=out, scale_factor=scale)


# --- dataset directory layout -------------------------------------------

MANIFEST_NAME = "manifest.json"
TRUTH_NAME = "truth.cfld"
PROBE_NAME = "probe.cfld"


def _amplitude_name(j: int, noisy: bool) -> str:
    return f"{'yn' if noisy else 'y'}_{j:04d}.cfld"


def write_dataset(
    out_dir,
    x: np.ndarray,
    probe: np.ndarray,
    grid: ScanGrid,
    clean: np.ndarray,
    noisy: NoisyAmplitudes | None,
    sim_params: dict,
) -> Path:
    """Write manifest, ground truth, probe, and amplitude stacks.

    Amplitude patterns are stored one CFLD file each (imaginary parts
    zero); noisy files appear only when noise was simulated.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_cfld(out / TRUTH_NAME, x)
    write_cfld(out / PROBE_NAME, probe)
    for j in range(len(grid)):
        write_cfld(out / _amplitude_name(j, False), clean[j])
    if noisy is not None:
        for j in range(len(grid)):
            write_cfld(out / _amplitude_name(j, True), noisy.stack[j])
    manifest = {
        "image_shape": list(grid.image_shape),
        "probe_size": grid.patch_size,
        "num_patterns": len(grid),
        "grid_dims": list(sim_params["grid_dims"]),
        "spacing": sim_params["spacing"],
        "seed": sim_params["seed"],
        "noise": noisy is not None,
        "r_p": sim_params.get("r_p"),
        "normalization": sim_params.get("normalization"),
        "scale_factor": noisy.scale_factor if noisy is not None else 1.0,
    }
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


@dataclass(frozen=True)
class Dataset:
    """A dataset directory: manifest, truth and probe are read on load, and an
    amplitude stack only when :meth:`amplitudes` is called."""

    root: Path
    truth: np.ndarray
    probe: np.ndarray
    grid: ScanGrid
    noise: bool
    scale_factor: float

    def amplitudes(self, noisy: bool) -> tuple[np.ndarray, float]:
        """(stack, descale): the (J, N_p, N_p) float64 clean or noisy stack, read
        from its files, and the factor a reconstruction from it is divided by
        (1 for clean data, ``scale_factor`` for noisy). Each file must hold
        finite, nonnegative amplitudes with zero imaginary parts and the
        probe's shape."""
        if noisy and not self.noise:
            raise ValueError(f"noisy data requested, but dataset {self.root} was simulated "
                             "without noise")
        stack = np.empty((len(self.grid), *self.probe.shape))
        for j in range(len(stack)):
            path = self.root / _amplitude_name(j, noisy)
            a = read_cfld(path)
            if a.shape != self.probe.shape:
                raise ValueError(f"{path}: shape {list(a.shape)} does not match the probe's "
                                 f"{list(self.probe.shape)}")
            if a.imag.any() or not ((0 <= a.real) & (a.real < np.inf)).all():
                raise ValueError(f"{path}: amplitudes must be finite, nonnegative and real")
            stack[j] = a.real
        return stack, self.scale_factor if noisy else 1.0


# The manifest keys load_dataset reads, each with the test its JSON value must pass:
# a whole number is a JSON integer that is not negative (a bool is not one).
_MANIFEST_KEYS = {
    "image_shape": lambda v: type(v) is list and list(map(type, v)) == [int, int] and min(v) >= 0,
    "probe_size": lambda v: type(v) is int and v >= 0,
    "grid_dims": lambda v: type(v) is list and list(map(type, v)) == [int, int] and min(v) >= 0,
    "spacing": lambda v: type(v) is int and v >= 0,
    "noise": lambda v: type(v) is bool,
    "scale_factor": lambda v: type(v) in (int, float) and 0 < v < np.inf,
}


def load_dataset(path) -> Dataset:
    """Load a dataset directory written by :func:`write_dataset`: check its
    manifest, then read and check the truth and probe. The amplitude files
    are read by :meth:`Dataset.amplitudes`."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} does not hold a JSON object")
    for key, valid in _MANIFEST_KEYS.items():
        if key not in manifest or not valid(manifest[key]):
            problem = f"has invalid value {manifest[key]!r}" if key in manifest else "is missing"
            raise ValueError(f"{manifest_path}: key '{key}' {problem}")
    truth = read_cfld(root / TRUTH_NAME)
    probe = read_cfld(root / PROBE_NAME)
    for name, field in ((TRUTH_NAME, truth), (PROBE_NAME, probe)):
        if not np.isfinite(field).all():
            raise ValueError(f"{root / name}: values must be finite")
    if truth.shape != tuple(manifest["image_shape"]):
        raise ValueError(f"{root / TRUTH_NAME}: shape {list(truth.shape)} does not match "
                         f"manifest image_shape {manifest['image_shape']}")
    n = manifest["probe_size"]
    if probe.shape != (n, n):
        raise ValueError(f"{root / PROBE_NAME}: shape {list(probe.shape)} does not match "
                         f"manifest probe_size {n}")
    # the grid comes after the files: their checked shapes bound its offsets
    try:
        grid = make_scan_grid(truth.shape, n, tuple(manifest["grid_dims"]), manifest["spacing"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    return Dataset(root, truth, probe, grid, manifest["noise"], float(manifest["scale_factor"]))
