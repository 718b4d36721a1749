"""Ptychographic phase retrieval: far-field diffraction simulation and
reconstruction with PMACE and SHARP solvers.
"""

from .fields import (
    NumericalFailure,
    ScanGrid,
    accumulate_stack,
    amplitude_power,
    build_coverage,
    extract_stack,
    fft2_orthonormal,
    ifft2_orthonormal,
    read_cfld,
    write_cfld,
)
from .metrics import nrmse_phase_aligned, read_trace_csv, write_trace_csv
from .pmace import (PmaceParams, agent_update, consensus, mann_iterate, pmace_coupling,
                    stitch_weighted)
from .sharp import SharpParams, p_a, sharp_coupling, sharp_iterate
from .sim import (
    add_poisson_noise,
    forward_amplitude,
    load_dataset,
    make_scan_grid,
    synth_object,
    synth_probe,
    write_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalFailure",
    "PmaceParams",
    "ScanGrid",
    "SharpParams",
    "accumulate_stack",
    "add_poisson_noise",
    "agent_update",
    "amplitude_power",
    "build_coverage",
    "consensus",
    "extract_stack",
    "fft2_orthonormal",
    "forward_amplitude",
    "ifft2_orthonormal",
    "load_dataset",
    "make_scan_grid",
    "mann_iterate",
    "nrmse_phase_aligned",
    "p_a",
    "pmace_coupling",
    "read_cfld",
    "read_trace_csv",
    "sharp_coupling",
    "sharp_iterate",
    "stitch_weighted",
    "synth_object",
    "synth_probe",
    "write_cfld",
    "write_dataset",
    "write_trace_csv",
]
