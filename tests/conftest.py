import numpy as np
import pytest

import ptychokit as pk
from ptychokit.pmace import consensus, stitch_weighted

# One-line verdicts from the acceptance tests, echoed after the run so
# they are visible without -s.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

DESK_SHAPE = (176, 176)
DESK_PROBE = 64
DESK_GRID = (8, 8)
DESK_SPACING = 14
DESK_OBJECT_SEED = 7
DESK_PROBE_SEED = 11


@pytest.fixture(scope="session")
def desk():
    """Noise-free desk-scale instance shared across the suite."""
    grid = pk.make_scan_grid(DESK_SHAPE, DESK_PROBE, DESK_GRID, DESK_SPACING)
    x = pk.synth_object(DESK_SHAPE, DESK_OBJECT_SEED)
    probe = pk.synth_probe(DESK_PROBE, DESK_PROBE_SEED)
    y = pk.forward_amplitude(x, probe, grid)
    return {
        "grid": grid,
        "truth": x,
        "probe": probe,
        "y": y,
        "mask": pk.build_coverage(probe, grid, 1.25) > 0,
    }


@pytest.fixture(scope="session")
def small():
    """Small instance for fast solver-mechanics tests."""
    shape, n_p = (48, 48), 16
    grid = pk.make_scan_grid(shape, n_p, (3, 3), 8)
    x = pk.synth_object(shape, 3)
    probe = pk.synth_probe(n_p, 5)
    y = pk.forward_amplitude(x, probe, grid)
    return {
        "grid": grid,
        "truth": x,
        "probe": probe,
        "y": y,
        "mask": pk.build_coverage(probe, grid, 1.25) > 0,
    }


def trace_bytes_without_seconds(path) -> bytes:
    """Trace file content with the wall-clock column removed.

    Elapsed seconds are the one nondeterministic artifact column;
    byte-level reproducibility comparisons use this view.
    """
    out = []
    with open(path, newline="") as fh:
        for line in fh.read().splitlines():
            out.append(",".join(line.split(",")[:2]))
    return ("\n".join(out) + "\n").encode()


def full_support_probe(size: int, seed: int) -> np.ndarray:
    """Probe with no zero pixels, for identities that need invertible D."""
    rng = np.random.default_rng(seed)
    amp = 0.5 + rng.random((size, size))
    pha = rng.uniform(-np.pi, np.pi, (size, size))
    return amp * np.exp(1j * pha)


def coupled_stack(stack: np.ndarray, coupling, grid) -> np.ndarray:
    """A coupling's projection of a whole stack: PMACE's G or SHARP's P_Q.

    The stack is stitched into one image and its patches are read back.
    """
    return consensus(stitch_weighted(stack, coupling, grid), coupling, grid)
