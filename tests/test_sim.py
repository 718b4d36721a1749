import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ptychokit as pk
from ptychokit import fields
from ptychokit.sim import (
    MANIFEST_NAME,
    NORMALIZATION_MODES,
    POISSON_LAM_MAX,
    PROBE_NAME,
    TRUTH_NAME,
)

# an overflow or invalid-value warning anywhere here is a fault, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ABOVE_LAM_MAX = float(np.nextafter(POISSON_LAM_MAX, np.inf))


def rate_refusal(r_p) -> str:
    """The whole message add_poisson_noise refuses ``r_p`` with, as a regex."""
    return re.escape(f"peak photon rate r_p must satisfy 0 < r_p <= {POISSON_LAM_MAX!r} "
                     f"(NumPy's Poisson limit), got {r_p!r}")


def scale_refusal(r_p, peak) -> str:
    """The whole message add_poisson_noise refuses a pair whose scale factor
    sqrt(r_p / peak) overflows to inf or underflows to 0 with, as a regex."""
    return re.escape(f"scale factor sqrt(r_p / peak) is not a positive finite number "
                     f"for r_p = {r_p!r} and peak intensity {peak!r}")


def poisson_oracle(clean, r_p, seed, mode):
    """add_poisson_noise as the whole-stack formula: intensity = y**2, its maxima, and
    one generator stream per pattern."""
    intensity = clean**2
    if mode == "global-max":
        ref = np.full(len(intensity), intensity.max())
    else:
        ref = intensity.max(axis=(1, 2))
    out = np.empty_like(intensity)
    for j in range(len(intensity)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        lam = intensity[j] / ref[j] * r_p if ref[j] > 0 else np.zeros_like(intensity[j])
        out[j] = np.sqrt(rng.poisson(lam).astype(np.float64))
    scale = float(np.sqrt(r_p / intensity.max())) if intensity.max() > 0 else 1.0
    return out, scale


class TestScanGridGeometry:
    def test_centered_raster_offsets(self):
        # 8x8 positions spaced 56 with a 256 patch span 648 pixels; in a
        # 660-pixel image the margin is exactly 6 on each side.
        grid = pk.make_scan_grid((660, 660), 256, (8, 8), 56)
        assert len(grid) == 64
        assert grid.offsets[0] == (6, 6)
        assert grid.offsets[-1] == (398, 398)

    def test_row_major_ordering(self):
        grid = pk.make_scan_grid((660, 660), 256, (8, 8), 56)
        assert grid.offsets[1] == (6, 62)
        assert grid.offsets[8] == (62, 6)

    def test_odd_leftover_margin_rounds_down(self):
        # span 7 in a 12-pixel image leaves 5; the margin floors to 2
        grid = pk.make_scan_grid((12, 12), 4, (2, 2), 3)
        assert grid.offsets[0] == (2, 2)
        assert grid.offsets[-1] == (5, 5)

    def test_rectangular_image_and_grid(self):
        grid = pk.make_scan_grid((40, 30), 8, (3, 2), 10)
        rows = {o[0] for o in grid.offsets}
        cols = {o[1] for o in grid.offsets}
        assert rows == {6, 16, 26} and cols == {6, 16}

    def test_oversized_span_rejected(self):
        with pytest.raises(ValueError):
            pk.make_scan_grid((48, 48), 16, (3, 3), 17)

    @pytest.mark.parametrize("grid_dims, spacing", [
        ((3, 3), -14), ((1, 1), -1), ((3, 3), 0), ((1, 2), 0),
    ])
    def test_negative_or_zero_spacing_refused_before_the_grid_is_built(
        self, monkeypatch, grid_dims, spacing
    ):
        # a negative step mirrors the raster; a zero one repeats one offset for every position
        monkeypatch.setattr(pk.sim, "ScanGrid", lambda *args, **kwargs: pytest.fail("built"))
        with pytest.raises(ValueError, match=f"^spacing must be positive, .* got {spacing} "):
            pk.make_scan_grid((48, 48), 16, grid_dims, spacing)

    @pytest.mark.parametrize("grid_dims", [(0, 3), (3, 0), (0, 0)])
    def test_empty_grid_refused_naming_grid_dims(self, monkeypatch, grid_dims):
        monkeypatch.setattr(pk.sim, "ScanGrid", lambda *args, **kwargs: pytest.fail("built"))
        with pytest.raises(ValueError, match="^grid_dims must hold at least one position in "
                                             f"each direction; got {grid_dims[0]}x{grid_dims[1]}$"):
            pk.make_scan_grid((48, 48), 16, grid_dims, 8)

    def test_single_position_keeps_zero_spacing(self):
        assert pk.make_scan_grid((48, 48), 16, (1, 1), 0).offsets == ((16, 16),)

    def test_exact_fit_accepted(self):
        grid = pk.make_scan_grid((48, 48), 16, (3, 3), 16)
        assert grid.offsets[0] == (0, 0)
        assert grid.offsets[-1] == (32, 32)


class TestSynthObject:
    def test_amplitude_and_phase_ranges(self):
        x = pk.synth_object((64, 64), seed=0)
        amp = np.abs(x)
        pha = np.angle(x)
        assert amp.min() >= 0.5 - 1e-12 and amp.max() <= 1.0 + 1e-12
        assert pha.min() >= -np.pi / 2 - 1e-12 and pha.max() <= np.pi / 2 + 1e-12

    def test_full_range_is_exercised(self):
        x = pk.synth_object((64, 64), seed=0)
        # min-max normalization pins the extremes of both fields
        assert abs(np.abs(x).min() - 0.5) < 1e-12
        assert abs(np.abs(x).max() - 1.0) < 1e-12

    def test_deterministic_in_seed(self):
        a = pk.synth_object((32, 32), seed=42)
        b = pk.synth_object((32, 32), seed=42)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = pk.synth_object((32, 32), seed=1)
        b = pk.synth_object((32, 32), seed=2)
        assert np.mean(np.abs(a - b) > 1e-6) > 0.99

    def test_shape_and_dtype(self):
        x = pk.synth_object((24, 40), seed=0)
        assert x.shape == (24, 40) and x.dtype == np.complex128

    @pytest.mark.parametrize("shape", [(5, 1), (1, 6), (2, 2), (33, 33), (64, 64), (176, 176),
                                       (37, 53), (53, 37), (48, 20), (99, 100)])
    def test_same_bits_as_scipy_fft(self, shape):
        """synth_object stays within 1e-13 of the object it was when it
        transformed with scipy.fft (measured: at most 3.2e-15); the bits
        moved when the real-input transform stopped replaying that library."""
        sfft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(7)

        def smooth():
            g = rng.standard_normal(shape)
            fr = sfft.fftfreq(shape[0])[:, None]
            fc = sfft.fftfreq(shape[1])[None, :]
            lowpass = np.exp(-(fr**2 + fc**2) / (2 * (1 / 16) ** 2))
            s = sfft.ifft2(sfft.fft2(g) * lowpass).real
            return (s - s.min()) / (s.max() - s.min())

        amp = 0.5 + 0.5 * smooth()
        pha = -np.pi / 2 + np.pi * smooth()
        expected = amp * np.exp(1j * pha)
        assert np.abs(pk.synth_object(shape, seed=7) - expected).max() <= 1e-13


class TestSynthProbe:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            pk.synth_probe(7, seed=0)

    def test_peak_at_center(self):
        d = pk.synth_probe(65, seed=0)
        amp = np.abs(d)
        assert amp[32, 32] == amp.max()

    def test_corners_dark(self):
        for size in (8, 16, 64):
            d = pk.synth_probe(size, seed=3)
            peak = np.abs(d).max()
            for corner in (d[0, 0], d[0, -1], d[-1, 0], d[-1, -1]):
                assert abs(corner) < 1e-6 * peak

    def test_aperture_interior_keeps_signal(self):
        for size in (8, 16, 64):
            d = pk.synth_probe(size, seed=3)
            c = (size - 1) / 2.0
            yy, xx = np.mgrid[0:size, 0:size]
            r = np.hypot(xx - c, yy - c)
            inside = r < 0.45 * size
            assert np.abs(d)[inside].min() >= 1e-3 * np.abs(d).max()

    def test_zero_beyond_hard_stop(self):
        size = 64
        d = pk.synth_probe(size, seed=3)
        c = (size - 1) / 2.0
        yy, xx = np.mgrid[0:size, 0:size]
        r = np.hypot(xx - c, yy - c)
        assert np.all(np.abs(d)[r >= 0.45 * size + 1e-9] == 0.0)

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(pk.synth_probe(16, seed=9), pk.synth_probe(16, seed=9))
        assert not np.array_equal(pk.synth_probe(16, seed=9), pk.synth_probe(16, seed=10))


class TestForwardModel:
    def test_shape_and_nonnegativity(self, small):
        y = small["y"]
        assert y.shape == (9, 16, 16)
        assert y.dtype == np.float64
        assert np.all(y >= 0)

    def test_energy_conservation_per_pattern(self, small):
        # the orthonormal transform preserves the l2 norm of each frame
        frames = small["probe"][None] * pk.extract_stack(small["truth"], small["grid"])
        for j in range(len(small["grid"])):
            assert np.isclose(
                np.sum(small["y"][j] ** 2), np.sum(np.abs(frames[j]) ** 2), rtol=1e-12
            )

    def test_zero_object_gives_zero_amplitudes(self, small):
        zero = np.zeros(small["truth"].shape, complex)
        assert np.all(pk.forward_amplitude(zero, small["probe"], small["grid"]) == 0)

    def test_single_position_matches_direct_computation(self):
        x = pk.synth_object((16, 16), seed=1)
        probe = pk.synth_probe(16, seed=2)
        grid = pk.make_scan_grid((16, 16), 16, (1, 1), 1)
        y = pk.forward_amplitude(x, probe, grid)
        direct = np.abs(np.fft.fft2(probe * x, norm="ortho"))
        np.testing.assert_allclose(y[0], direct, atol=1e-12)

    def test_worker_count_does_not_change_bits(self):
        # 100 frames make four blocks of frames
        x = pk.synth_object((52, 52), seed=3)
        probe = pk.synth_probe(16, seed=4)
        grid = pk.make_scan_grid((52, 52), 16, (10, 10), 4)
        frames = pk.extract_stack(x, grid, weight=probe)
        expected = np.abs(pk.fft2_orthonormal(frames)).tobytes()
        for workers in (1, 2, 3, 8):
            assert pk.forward_amplitude(x, probe, grid, workers=workers).tobytes() == expected

    @pytest.mark.parametrize("block_frames", [1, 5, 36])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), workers=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_the_per_frame_model(self, block_frames, data, n, workers, seed):
        # one or two whole blocks, then a partial one (at one frame per block all are whole)
        frames = (block_frames * data.draw(st.integers(1, 2), label="whole_blocks")
                  + data.draw(st.integers(min(1, block_frames - 1), block_frames - 1),
                              label="partial"))
        shape = data.draw(st.tuples(st.integers(n + 10, n + 16), st.integers(n + 10, n + 16)),
                          label="shape")
        rng = np.random.default_rng(seed)
        positions = [(r, c) for r in range(shape[0] - n + 1) for c in range(shape[1] - n + 1)]
        offsets = tuple(positions[i] for i in rng.choice(len(positions), frames, replace=False))
        grid = pk.ScanGrid(offsets, n, shape)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        probe = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "BLOCK_FRAMES", block_frames)
            y = pk.forward_amplitude(x, probe, grid, workers=workers)
        oracle = [np.abs(pk.fft2_orthonormal(probe * x[r : r + n, c : c + n])) for r, c in offsets]
        assert y.tobytes() == np.stack(oracle).tobytes()


class TestPoissonNoise:
    def test_deterministic_in_seed(self, small):
        a = pk.add_poisson_noise(small["y"], r_p=1e4, seed=21)
        b = pk.add_poisson_noise(small["y"], r_p=1e4, seed=21)
        np.testing.assert_array_equal(a.stack, b.stack)
        assert a.scale_factor == b.scale_factor

    def test_distinct_seeds_differ(self, small):
        a = pk.add_poisson_noise(small["y"], r_p=1e4, seed=21)
        b = pk.add_poisson_noise(small["y"], r_p=1e4, seed=22)
        assert not np.array_equal(a.stack, b.stack)

    def test_zero_amplitudes_stay_zero(self):
        clean = np.zeros((3, 4, 4))
        clean[0, 0, 0] = 2.0  # nonzero reference so scaling is defined
        noisy = pk.add_poisson_noise(clean, r_p=1e3, seed=0)
        assert np.all(noisy.stack[1:] == 0)

    def test_high_rate_limit_recovers_clean_data(self, small):
        # at r_p = 1e9 the relative Poisson fluctuation is ~3e-5, so the
        # de-scaled noisy stack reproduces the clean one to 1e-3
        noisy = pk.add_poisson_noise(small["y"], r_p=1e9, seed=5)
        rel = np.linalg.norm(noisy.stack / noisy.scale_factor - small["y"]) / np.linalg.norm(
            small["y"]
        )
        assert rel < 1e-3

    def test_scale_factor_value(self, small):
        r_p = 1e4
        noisy = pk.add_poisson_noise(small["y"], r_p=r_p, seed=5)
        expected = np.sqrt(r_p / (small["y"] ** 2).max())
        assert np.isclose(noisy.scale_factor, expected, rtol=1e-12)

    def test_normalization_modes(self):
        # second pattern is 100x dimmer; per-pattern scaling boosts it back
        rng = np.random.default_rng(0)
        bright = 1.0 + rng.random((8, 8))
        clean = np.stack([bright, 0.01 * bright])
        r_p = 1e6
        g = pk.add_poisson_noise(clean, r_p, seed=1, mode="global-max")
        p = pk.add_poisson_noise(clean, r_p, seed=1, mode="per-pattern-max")
        assert abs((g.stack[0] ** 2).max() - r_p) < 5 * np.sqrt(r_p)
        assert (g.stack[1] ** 2).max() < 1e-2 * r_p
        assert abs((p.stack[1] ** 2).max() - r_p) < 5 * np.sqrt(r_p)

    def test_per_pattern_streams_are_order_independent(self, small):
        full = pk.add_poisson_noise(small["y"], r_p=1e4, seed=3, mode="per-pattern-max")
        solo = pk.add_poisson_noise(small["y"][:1], r_p=1e4, seed=3, mode="per-pattern-max")
        np.testing.assert_array_equal(full.stack[0], solo.stack[0])

    def test_invalid_arguments_rejected(self, small):
        for r_p in (0.0, -1.0, np.nan, np.inf, -np.inf, ABOVE_LAM_MAX):
            with pytest.raises(ValueError, match=f"^{rate_refusal(r_p)}$"):
                pk.add_poisson_noise(small["y"], r_p=r_p, seed=0)
        with pytest.raises(ValueError):
            pk.add_poisson_noise(small["y"], r_p=1e4, seed=0, mode="median")

    def test_pair_with_an_overflowing_scale_factor_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        # r_p / max y^2 = 1e18 / 1e-320 overflows, so sqrt(r_p / peak) is inf;
        # 5e-324 / 4.0 underflows, so it is 0 and every draw would be 0
        for value, r_p in ((1e-160, 1e18), (2.0, 5e-324)):
            peak = float(np.square(value))
            with pytest.raises(ValueError, match=f"^{scale_refusal(r_p, peak)}$"):
                pk.add_poisson_noise(np.full((2, 3, 3), value), r_p=r_p, seed=0)

    def test_rate_limit_is_numpys_poisson_limit(self, small):
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(ABOVE_LAM_MAX)
        top = pk.add_poisson_noise(small["y"], r_p=POISSON_LAM_MAX, seed=0)
        assert np.isfinite(top.stack).all() and top.stack.max() > 0

    @settings(max_examples=150, deadline=None)
    @given(
        clean=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6)),
                     elements=st.floats(-1e6, 1e6)),
        zero=st.integers(0, 4),
        r_p=st.floats(1e-3, 1e12) | st.floats()
        | st.sampled_from([POISSON_LAM_MAX, ABOVE_LAM_MAX, 0.0]),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(NORMALIZATION_MODES),
    )
    # r_p / max y^2 = 1e18 / 1e-320 overflows and 5e-324 / 4.0 underflows: pairs to refuse
    @example(clean=np.full((2, 3, 3), 1e-160), zero=0, r_p=1e18, seed=0, mode="global-max")
    @example(clean=np.full((2, 3, 3), 2.0), zero=0, r_p=5e-324, seed=0, mode="global-max")
    def test_same_bytes_as_the_whole_stack_formula(self, clean, zero, r_p, seed, mode):
        clean[zero % len(clean)] = 0  # an all-zero frame beside entries of either sign
        if not 0 < r_p <= POISSON_LAM_MAX:
            with pytest.raises(ValueError, match=f"^{rate_refusal(r_p)}$"):
                pk.add_poisson_noise(clean, r_p, seed, mode)
            return
        peak = float((clean**2).max())
        # Python floats overflow to inf and underflow to 0 silently
        if peak > 0 and not 0 < r_p / peak < math.inf:
            with pytest.raises(ValueError, match=f"^{scale_refusal(r_p, peak)}$"):
                pk.add_poisson_noise(clean, r_p, seed, mode)
            return
        noisy = pk.add_poisson_noise(clean, r_p, seed, mode)
        stack, scale = poisson_oracle(clean, r_p, seed, mode)
        assert noisy.stack.tobytes() == stack.tobytes()
        assert noisy.scale_factor == scale


class TestDatasetIo:
    @staticmethod
    def _write(tmp_path, small, with_noise):
        noisy = pk.add_poisson_noise(small["y"], r_p=1e5, seed=17) if with_noise else None
        params = {
            "grid_dims": (3, 3),
            "spacing": 8,
            "seed": 3,
            "r_p": 1e5 if with_noise else None,
            "normalization": "global-max" if with_noise else None,
        }
        return pk.write_dataset(
            tmp_path / "ds", small["truth"], small["probe"], small["grid"],
            small["y"], noisy, params,
        ), noisy

    def test_round_trip_with_noise(self, tmp_path, small):
        out, noisy = self._write(tmp_path, small, with_noise=True)
        ds = pk.load_dataset(out)
        np.testing.assert_array_equal(ds.truth, small["truth"])
        np.testing.assert_array_equal(ds.probe, small["probe"])
        clean, descale = ds.amplitudes(noisy=False)
        np.testing.assert_array_equal(clean, small["y"])
        assert descale == 1.0
        stack, descale = ds.amplitudes(noisy=True)
        np.testing.assert_array_equal(stack, noisy.stack)
        assert descale == ds.scale_factor == noisy.scale_factor
        assert ds.grid.offsets == small["grid"].offsets
        np.testing.assert_array_equal(ds.lit, small["mask"])

    def test_noise_free_dataset_has_no_noisy_files(self, tmp_path, small):
        out, _ = self._write(tmp_path, small, with_noise=False)
        assert not list(out.glob("yn_*.cfld"))
        ds = pk.load_dataset(out)
        assert ds.scale_factor == 1.0
        message = f"noisy data requested, but dataset {out} was simulated without noise"
        with pytest.raises(ValueError, match=re.escape(message)):
            ds.amplitudes(noisy=True)

    def test_expected_files_present(self, tmp_path, small):
        out, _ = self._write(tmp_path, small, with_noise=True)
        names = {p.name for p in out.iterdir()}
        assert {MANIFEST_NAME, TRUTH_NAME, PROBE_NAME, "y_0000.cfld", "yn_0008.cfld"} <= names

    def test_manifest_records_geometry(self, tmp_path, small):
        out, noisy = self._write(tmp_path, small, with_noise=True)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["image_shape"] == [48, 48]
        assert manifest["probe_size"] == 16
        assert manifest["num_patterns"] == 9
        assert manifest["grid_dims"] == [3, 3]
        assert manifest["spacing"] == 8
        assert manifest["noise"] is True
        assert manifest["scale_factor"] == noisy.scale_factor

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pk.load_dataset(tmp_path)

    def test_inconsistent_manifest_rejected(self, tmp_path, small):
        out, _ = self._write(tmp_path, small, with_noise=False)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["image_shape"] = [47, 48]
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            pk.load_dataset(out)

    @pytest.mark.parametrize("key, value", [
        ("image_shape", [48]), ("image_shape", [48, 48.0]), ("probe_size", "16"),
        ("grid_dims", 3), ("spacing", "8"), ("spacing", True), ("noise", 1),
        ("scale_factor", 0), ("scale_factor", [1.0]), ("spacing", -8), ("grid_dims", [3, -3]),
        ("probe_size", -16), ("image_shape", [-48, 48]),
    ])
    def test_mistyped_manifest_key_rejected(self, tmp_path, small, key, value):
        out, _ = self._write(tmp_path, small, with_noise=True)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest[key] = value
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"manifest.json: key '{key}' has invalid value"):
            pk.load_dataset(out)

    @pytest.mark.parametrize(
        "key", ["image_shape", "probe_size", "grid_dims", "spacing", "noise", "scale_factor"]
    )
    def test_missing_manifest_key_rejected(self, tmp_path, small, key):
        out, _ = self._write(tmp_path, small, with_noise=True)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        del manifest[key]
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"manifest.json: key '{key}' is missing"):
            pk.load_dataset(out)

    def test_manifest_that_is_not_an_object_rejected(self, tmp_path, small):
        out, _ = self._write(tmp_path, small, with_noise=False)
        (out / MANIFEST_NAME).write_text("[1, 2]")
        with pytest.raises(ValueError, match="does not hold a JSON object"):
            pk.load_dataset(out)

    def test_manifest_that_is_not_json_rejected(self, tmp_path, small):
        out, _ = self._write(tmp_path, small, with_noise=False)
        (out / MANIFEST_NAME).write_text("{\n")
        with pytest.raises(ValueError, match="manifest.json: not valid JSON: Expecting"):
            pk.load_dataset(out)

    def test_manifest_that_is_not_utf8_rejected(self, tmp_path, small):
        # found by the dataset-mutation property test: a byte overwrite left
        # an error that named neither the file nor the dataset
        out, _ = self._write(tmp_path, small, with_noise=False)
        raw = (out / MANIFEST_NAME).read_bytes()
        (out / MANIFEST_NAME).write_bytes(raw[:5] + b"\xff" + raw[6:])
        with pytest.raises(ValueError, match="manifest.json: not valid JSON: 'utf-8' codec"):
            pk.load_dataset(out)

    @pytest.mark.parametrize("keep_one_lit_pixel", [True, False])
    def test_truth_zero_on_every_lit_pixel_rejected(self, tmp_path, small, keep_one_lit_pixel):
        # the truth stays nonzero off the lit region; one lit pixel is enough for the NRMSE
        out, _ = self._write(tmp_path, small, with_noise=False)
        lit = pk.build_coverage(small["probe"], small["grid"], 0) > 0
        truth = small["truth"].copy()
        truth[lit] = 0
        if keep_one_lit_pixel:
            truth[tuple(np.argwhere(lit)[-1])] = 1
        pk.write_cfld(out / TRUTH_NAME, truth)
        if keep_one_lit_pixel:
            np.testing.assert_array_equal(pk.load_dataset(out).truth, truth)
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"{out / TRUTH_NAME}: zero on every pixel the probe lights")):
                pk.load_dataset(out)

    def test_probe_shape_checked_against_manifest(self, tmp_path, small):
        out, _ = self._write(tmp_path, small, with_noise=False)
        pk.write_cfld(out / PROBE_NAME, small["probe"][:, :1])
        with pytest.raises(ValueError, match="probe_size"):
            pk.load_dataset(out)
