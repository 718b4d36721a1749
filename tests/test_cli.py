import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ptychokit as pk
from ptychokit.cli import main
from ptychokit.metrics import read_trace_csv
from ptychokit.sim import POISSON_LAM_MAX

from conftest import trace_bytes_without_seconds

ABOVE_LAM_MAX = float(np.nextafter(POISSON_LAM_MAX, np.inf))
RATE_RANGE = (f"peak photon rate r_p must satisfy 0 < r_p <= {POISSON_LAM_MAX!r} "
              "(NumPy's Poisson limit)")

SIM_SECTION = {
    "image_shape": [48, 48],
    "probe_size": 16,
    "grid_dims": [3, 3],
    "spacing": 8,
    "object_seed": 3,
    "probe_seed": 5,
    "noise": True,
    "r_p": 1e5,
    "normalization": "global-max",
    "noise_seed": 9,
}

SOLVER_SECTION = {
    "name": "pmace",
    "alpha": 0.1,
    "rho": 0.5,
    "kappa": 1.25,
    "iterations": 30,
    "eval_every": 1,
    "init": "ones",
    "data": "clean",
}


SOLVER_KEYS = ("name", "alpha", "rho", "kappa", "beta", "iterations", "eval_every",
               "init", "init_seed", "data")
# Key names for keys no command reads, once the names some command reads are set aside;
# line breaks are left out, so each name fits on the one stderr line that refuses it.
UNREAD_KEYS = st.text(st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Zl", "Zp")),
                      min_size=1, max_size=8)


def any_value(numbers=st.integers() | st.floats(), text=st.text(max_size=6), ints=st.integers()):
    """An int or float from ``numbers``, a string, a list of ``ints``, a mapping or null."""
    return st.one_of(
        numbers, text, st.lists(ints, max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2), st.none(),
    )


def solver_value(key):
    """:func:`any_value` for one solver key.

    Values for ``iterations`` stay small (a one-character string is at
    most 9) so that every example runs quickly.
    """
    if key == "iterations":
        numbers = st.integers(-2, 6) | st.floats(-2, 6) | st.sampled_from([np.nan, np.inf])
        return any_value(numbers, st.text(max_size=1))
    return any_value()


MANIFEST_KEYS = ("image_shape", "probe_size", "num_patterns", "grid_dims", "spacing", "seed",
                 "noise", "r_p", "normalization", "scale_factor")

# Drawn in place of a value: the key is deleted instead.
DELETE = object()


def set_or_delete(mapping, key, value):
    if value is DELETE:
        del mapping[key]
    else:
        mapping[key] = value


def main_quietly(argv):
    """(exit code, stderr) of one in-process run, standard output discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def nan_agent_update(original):
    """``original`` pmace.agent_update with a NaN put into each output: it stands in
    for a solve that diverges on valid data."""
    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        out[0, 0, 0] = np.nan
        return out

    return poisoned


def no_work(*args, **kwargs):
    """Stands in for a step of the work that a refused command must never reach."""
    raise AssertionError("the work ran")


def write_config(path, sim=None, solver=None):
    cfg = {}
    if sim is not None:
        cfg["sim"] = sim
    if solver is not None:
        cfg["solver"] = solver
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """One simulated small dataset shared by the reconstruct/sweep tests."""
    root = tmp_path_factory.mktemp("data")
    cfg = write_config(root / "sim.yaml", sim=dict(SIM_SECTION))
    out = root / "ds"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
    return out


def manifest_with_spacing(tmp_path, dataset_dir, spacing):
    """A copy of the dataset whose manifest holds ``spacing``; return its path."""
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps(dict(manifest, spacing=spacing)))
    return data


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def tree_bytes(path):
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


# Commands that write an --out directory, each with a config of its own.
OUT_KINDS = ("simulate noisy", "simulate clean", "reconstruct pmace", "reconstruct sharp",
             "sweep pmace", "sweep sharp_plus")
# What each of them computes; none of it may run when --out is refused.
WORK = ("ptychokit.sim.synth_object", "ptychokit.sim.load_dataset",
        "ptychokit.pmace.mann_iterate", "ptychokit.sharp.sharp_iterate")


def out_command(kind, tmp, dataset_dir, out):
    """argv of a small command of ``kind`` (one of OUT_KINDS) writing into ``out``."""
    command, which = kind.split()
    sim = dict(SIM_SECTION, noise=which == "noisy")
    solver = dict(SOLVER_SECTION, name=which if command != "simulate" else "pmace",
                  beta=0.45, iterations=2)
    cfg = write_config(tmp / f"{command}-{which}.yaml", sim=sim, solver=solver)
    extra = [] if command == "simulate" else ["--dataset", str(dataset_dir)]
    if command == "sweep":
        extra += ["--param", "alpha" if which == "pmace" else "beta", "--values", "0.1,0.2"]
    return [command, "--config", cfg, "--out", str(out), "--workers", "1", *extra]


class TestSimulate:
    def test_writes_expected_files(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert "manifest.json" in names and "truth.cfld" in names and "probe.cfld" in names
        assert {f"y_{j:04d}.cfld" for j in range(9)} <= names
        assert {f"yn_{j:04d}.cfld" for j in range(9)} <= names

    def test_manifest_content(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["r_p"] == 1e5
        assert manifest["num_patterns"] == 9
        assert manifest["noise"] is True
        assert manifest["seed"] == {"object": 3, "probe": 5, "noise": 9}

    def test_noise_off_omits_noisy_files(self, tmp_path):
        sim = dict(SIM_SECTION, noise=False)
        cfg = write_config(tmp_path / "c.yaml", sim=sim)
        out = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        assert not list(out.glob("yn_*.cfld"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["noise"] is False and manifest["r_p"] is None

    def test_rerun_is_byte_identical(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION))
        out = tmp_path / "ds2"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        assert dir_bytes(out) == dir_bytes(dataset_dir)

    def test_noise_seed_changes_noise_stream_only(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, noise_seed=77))
        out = tmp_path / "ds3"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        base = dir_bytes(dataset_dir)
        other = dir_bytes(out)
        assert other["truth.cfld"] == base["truth.cfld"]
        assert other["y_0000.cfld"] == base["y_0000.cfld"]
        assert other["yn_0000.cfld"] != base["yn_0000.cfld"]

    def test_full_overlap_geometry(self, tmp_path):
        # 8x8 grid of 256-pixel patches spaced 56 inside a 660-pixel image
        sim = {
            "image_shape": [660, 660], "probe_size": 256, "grid_dims": [8, 8],
            "spacing": 56, "object_seed": 1, "probe_seed": 2, "noise": False,
        }
        cfg = write_config(tmp_path / "c.yaml", sim=sim)
        out = tmp_path / "big"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
        assert len(list(out.glob("y_*.cfld"))) == 64


class TestReconstruct:
    def run(self, tmp_path, dataset_dir, solver_overrides=None, workers=1):
        tmp_path.mkdir(parents=True, exist_ok=True)
        solver = dict(SOLVER_SECTION, **(solver_overrides or {}))
        cfg = write_config(tmp_path / "run.yaml", solver=solver)
        out = tmp_path / "run"
        code = main(
            ["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
             "--out", str(out), "--workers", str(workers)]
        )
        return code, out

    def test_artifacts_written(self, tmp_path, dataset_dir):
        code, out = self.run(tmp_path, dataset_dir)
        assert code == 0
        assert (out / "recon.cfld").exists()
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        trace = read_trace_csv(out / "trace.csv")
        assert summary["final_nrmse"] == trace[-1][1]
        assert summary["solver"]["name"] == "pmace"
        assert summary["iterations"] == 30
        assert trace[-1][0] == 30

    def test_eval_every_counts_rows(self, tmp_path, dataset_dir):
        code, out = self.run(
            tmp_path, dataset_dir, {"iterations": 100, "eval_every": 10}
        )
        assert code == 0
        trace = read_trace_csv(out / "trace.csv")
        assert [r[0] for r in trace] == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_noisy_data_path(self, tmp_path, dataset_dir):
        code, out = self.run(tmp_path, dataset_dir, {"data": "noisy", "alpha": 0.5})
        assert code == 0
        trace = read_trace_csv(out / "trace.csv")
        assert np.isfinite(trace[-1][1]) and trace[-1][1] > 0

    def test_sharp_variants_run(self, tmp_path, dataset_dir):
        for name in ("sharp", "sharp_plus"):
            code, out = self.run(
                tmp_path / name, dataset_dir, {"name": name, "beta": 0.45, "iterations": 10}
            )
            assert code == 0
            assert json.loads((out / "summary.json").read_text())["solver"]["name"] == name

    def test_random_init_seed_override(self, tmp_path, dataset_dir):
        runs = {}
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            _, out = self.run(
                tmp_path / tag, dataset_dir, {"init": "random", "iterations": 5, "init_seed": seed}
            )
            runs[tag] = (out / "recon.cfld").read_bytes()
        assert runs["a"] == runs["b"]
        assert runs["a"] != runs["c"]

    def test_worker_count_does_not_change_artifacts(self, tmp_path, dataset_dir):
        _, out1 = self.run(tmp_path / "w1", dataset_dir, workers=1)
        _, out8 = self.run(tmp_path / "w8", dataset_dir, workers=8)
        for out, workers in ((out1, 1), (out8, 8)):
            assert json.loads((out / "summary.json").read_text())["workers"] == workers
        assert (out1 / "recon.cfld").read_bytes() == (out8 / "recon.cfld").read_bytes()
        assert trace_bytes_without_seconds(out1 / "trace.csv") == trace_bytes_without_seconds(
            out8 / "trace.csv"
        )

    def test_summary_records_only_the_solvers_params(self, tmp_path, dataset_dir):
        # the config also carries the other solver's keys, which are ignored
        both = {"beta": 0.3, "iterations": 5}
        _, out = self.run(tmp_path / "p", dataset_dir, both)
        solver = json.loads((out / "summary.json").read_text())["solver"]
        assert solver == {
            "name": "pmace", "alpha": 0.1, "rho": 0.5, "kappa": 1.25, "max_iters": 5,
            "eval_every": 1, "data": "clean", "init": "ones", "init_seed": 0,
        }
        _, out = self.run(tmp_path / "s", dataset_dir, dict(both, name="sharp"))
        solver = json.loads((out / "summary.json").read_text())["solver"]
        assert solver["beta"] == 0.3 and solver["variant"] == "sharp"
        assert not {"alpha", "rho", "kappa"} & solver.keys()

    @pytest.mark.parametrize("own, others", [
        ({"name": "pmace", "alpha": 0.1}, {"beta": 0.3}),
        ({"name": "sharp", "beta": 0.45}, {"alpha": 0.7, "rho": 0.2, "kappa": 3.0}),
    ])
    def test_other_solvers_keys_do_not_change_the_bytes(self, tmp_path, dataset_dir, own,
                                                        others):
        def artifacts(label, solver):
            cfg = write_config(tmp_path / f"{label}.yaml", solver=solver)
            out = tmp_path / label
            assert main(["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
                         "--out", str(out), "--workers", "1"]) == 0
            summary = json.loads((out / "summary.json").read_text())
            del summary["wall_seconds"]
            return (summary, (out / "recon.cfld").read_bytes(),
                    trace_bytes_without_seconds(out / "trace.csv"))

        own = dict(own, iterations=5, data="noisy")
        assert artifacts("both", dict(own, **others)) == artifacts("own", own)

    def test_unknown_solver_exits_2(self, tmp_path, dataset_dir):
        code, _ = self.run(tmp_path, dataset_dir, {"name": "awf"})
        assert code == 2

    def test_missing_dataset_exits_2(self, tmp_path):
        code, _ = self.run(tmp_path, tmp_path / "nope")
        assert code == 2

    def test_noisy_request_without_noisy_data_exits_2(self, tmp_path):
        sim = dict(SIM_SECTION, noise=False)
        cfg = write_config(tmp_path / "sim.yaml", sim=sim)
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds), "--workers", "1"]) == 0
        code, out = self.run(tmp_path, ds, {"data": "noisy"})
        assert code == 2
        assert not out.exists()

    def test_invalid_solver_param_exits_2(self, tmp_path, dataset_dir):
        code, _ = self.run(tmp_path, dataset_dir, {"rho": 1.5})
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("alpha", [1]), ("alpha", {"a": 1}), ("iterations", [5]), ("init_seed", "x"),
        ("eval_every", float("inf")), ("alpha", True), ("init_seed", -1),
    ])
    def test_solver_value_of_wrong_type_exits_2(self, tmp_path, dataset_dir, capsys, key, value):
        code, out = self.run(tmp_path, dataset_dir, {key: value})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key 'solver.{key}'") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("iterations", 2.7), ("eval_every", 1.5), ("init_seed", 0.5), ("iterations", True),
        ("init_seed", -1), ("iterations", -1),
    ])
    def test_integer_key_that_is_not_whole_exits_2(
        self, tmp_path, dataset_dir, capsys, key, value
    ):
        code, out = self.run(tmp_path, dataset_dir, {key: value})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key 'solver.{key}'") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_probe_exits_2(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        probe = pk.read_cfld(data / "probe.cfld")
        pk.write_cfld(data / "probe.cfld", np.zeros_like(probe))
        code, out = self.run(tmp_path, data)
        assert code == 2
        assert capsys.readouterr().err == "error: probe is zero everywhere\n"
        assert not out.exists()

    def test_bad_init_mode_exits_2(self, tmp_path, dataset_dir):
        code, out = self.run(tmp_path, dataset_dir, {"init": "zeros"})
        assert code == 2
        assert not out.exists()

    def test_non_finite_amplitudes_exit_2(self, tmp_path, dataset_dir, capsys):
        # bad data is an input error, not a solver failure
        ds = tmp_path / "bad_ds"
        ds.mkdir()
        for p in dataset_dir.iterdir():
            (ds / p.name).write_bytes(p.read_bytes())
        bad = pk.read_cfld(ds / "y_0000.cfld")
        bad[0, 0] = np.nan
        pk.write_cfld(ds / "y_0000.cfld", bad)
        code, out = self.run(tmp_path, ds)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ds / 'y_0000.cfld'}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_iterate_exits_3(self, tmp_path, dataset_dir, capsys, monkeypatch):
        monkeypatch.setattr(pk.pmace, "agent_update", nan_agent_update(pk.pmace.agent_update))
        code, out = self.run(tmp_path, dataset_dir)
        assert code == 3
        assert capsys.readouterr().err == "error: non-finite values in iterate at iteration 1\n"
        assert not out.exists()


def run_on_changed_file(tmp_path, dataset_dir, name, change, command, data="clean"):
    """Run ``command`` on a copy of the dataset whose CFLD file ``name`` holds
    ``change`` of its field; return (exit code, stderr, file path)."""
    ds = tmp_path / "ds"
    shutil.copytree(dataset_dir, ds)
    pk.write_cfld(ds / name, change(pk.read_cfld(ds / name)))
    if command == "evaluate":
        argv = ["evaluate", "--recon", str(dataset_dir / "truth.cfld"), "--dataset", str(ds)]
    else:
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION, data=data))
        argv = ["reconstruct", "--config", cfg, "--dataset", str(ds),
                "--out", str(tmp_path / "run"), "--workers", "1"]
    code, err = main_quietly(argv)
    assert not (tmp_path / "run").exists()
    return code, err, ds / name


class TestDatasetFiles:
    """Each dataset file is checked as it is read: a bad one exits 2 with
    one stderr line that names it."""

    @pytest.mark.parametrize("name, change, data", [
        ("yn_0003.cfld", lambda a: a[:8, :8], "noisy"),
        ("y_0004.cfld", lambda a: -a, "clean"),
        ("yn_0005.cfld", lambda a: a + 1e-3j, "noisy"),
    ], ids=["8x8", "negated", "imaginary-part"])
    def test_bad_amplitude_file_exits_2_naming_it(self, tmp_path, dataset_dir, name, change,
                                                  data):
        code, err, path = run_on_changed_file(tmp_path, dataset_dir, name, change,
                                              "reconstruct", data)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, value", [("probe.cfld", np.inf), ("truth.cfld", np.nan)])
    @pytest.mark.parametrize("command", ["reconstruct", "evaluate"])
    def test_non_finite_probe_or_truth_exits_2_naming_it(self, tmp_path, dataset_dir, name,
                                                         value, command):
        def change(a):
            a[3, 4] = value
            return a

        code, err, path = run_on_changed_file(tmp_path, dataset_dir, name, change, command)
        assert code == 2
        assert err == f"error: {path}: values must be finite\n"


    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_overflow_in_a_solve_exits_3_with_one_stderr_line(self, tmp_path, dataset_dir,
                                                               command, workers):
        # 1e308 passes the load checks; the solve overflows, and a fresh process
        # shows every NumPy warning that reaches stderr
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        pk.write_cfld(ds / "y_0002.cfld", np.full((16, 16), 1e308 + 0j))
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION, iterations=3))
        argv = [command, "--config", cfg, "--dataset", str(ds), "--out", str(tmp_path / "out"),
                "--workers", workers]
        if command == "sweep":
            argv += ["--param", "alpha", "--values", "0.1,0.2"]
        proc = subprocess.run([sys.executable, "-m", "ptychokit", *argv],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 3
        assert proc.stderr == "error: non-finite values in iterate at iteration 1\n"


def divisor_pairs(n):
    return [(d, n // d) for d in range(1, n + 1) if n % d == 0]


@st.composite
def mutated_bytes(draw, raw, cfld):
    """``raw`` truncated, appended to, overwritten in one byte range, or (for
    a CFLD file) with its header's rows and cols rewritten: either any u64
    pair or a pair whose product still matches the payload."""
    kinds = ["truncate", "append", "overwrite"] + (["header"] if cfld else [])
    kind = draw(st.sampled_from(kinds), label="mutation")
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=64))
    if kind == "overwrite":
        start = draw(st.integers(0, len(raw) - 1))
        patch = draw(st.binary(min_size=1, max_size=64))[:len(raw) - start]
        return raw[:start] + patch + raw[start + len(patch):]
    u64 = st.integers(0, 2**64 - 1)
    sizes = draw(st.tuples(u64, u64) | st.sampled_from(divisor_pairs((len(raw) - 24) // 16)))
    return raw[:8] + struct.pack("<QQ", *sizes) + raw[24:]


class TestDatasetMutations:
    """A dataset file damaged in any way leaves every command on the exit-code
    contract: 0, 2 or 3, and one stderr line whenever it is not 0."""

    @pytest.fixture(scope="class")
    def recon(self, dataset_dir, tmp_path_factory):
        """A reconstruction of the undamaged dataset, for evaluate."""
        out = tmp_path_factory.mktemp("recon") / "run"
        cfg = write_config(out.parent / "c.yaml", solver=dict(SOLVER_SECTION, iterations=2))
        assert main(["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
                     "--out", str(out), "--workers", "1"]) == 0
        return out / "recon.cfld"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["pmace", "sharp", "sharp_plus"]),
           stack=st.sampled_from(["clean", "noisy"]))
    def test_mutated_dataset_file_exits_0_2_or_3_with_one_line(self, dataset_dir, recon, data,
                                                                name, stack):
        files = ["manifest.json", "truth.cfld", "probe.cfld", "y_0004.cfld", "yn_0007.cfld"]
        victim = data.draw(st.sampled_from(files), label="file")
        raw = (dataset_dir / victim).read_bytes()
        changed = data.draw(mutated_bytes(raw, victim.endswith(".cfld")), label="bytes")
        solver = dict(SOLVER_SECTION, name=name, beta=0.45, iterations=2, data=stack)
        with tempfile.TemporaryDirectory() as tmp:
            ds = Path(tmp) / "ds"
            shutil.copytree(dataset_dir, ds)
            (ds / victim).write_bytes(changed)
            cfg = write_config(Path(tmp) / "c.yaml", solver=solver)
            for argv in (["reconstruct", "--config", cfg, "--dataset", str(ds),
                          "--out", str(Path(tmp) / "o"), "--workers", "1"],
                         ["evaluate", "--recon", str(recon), "--dataset", str(ds)]):
                with warnings.catch_warnings(record=True) as warned:
                    warnings.simplefilter("always")
                    code, err = main_quietly(argv)
                assert code in (0, 2, 3), argv[0]
                # a warning would be printed on stderr outside the test
                lines = err.splitlines() + [str(w.message) for w in warned]
                assert code == 0 or (err.startswith("error: ") and len(lines) == 1), lines
                assert code != 0 or not lines, lines
                assert code != 2 or victim in err, err


class TestDatasetReads:
    """Each command reads only the dataset files it uses."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Names of the files the dataset loader reads, one entry per read."""
        names = []
        original = pk.sim.read_cfld

        def recording(path):
            names.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(pk.sim, "read_cfld", recording)
        return names

    def test_evaluate_reads_truth_and_probe_only(self, dataset_dir, opened):
        code, _ = main_quietly(["evaluate", "--recon", str(dataset_dir / "truth.cfld"),
                            "--dataset", str(dataset_dir)])
        assert code == 0
        assert opened == ["truth.cfld", "probe.cfld"]

    @pytest.mark.parametrize("data, prefix", [("clean", "y_"), ("noisy", "yn_")])
    def test_reconstruct_reads_only_the_stack_it_solves_from(self, tmp_path, dataset_dir,
                                                             opened, data, prefix):
        solver = dict(SOLVER_SECTION, data=data, iterations=2)
        cfg = write_config(tmp_path / "c.yaml", solver=solver)
        code, _ = main_quietly(["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
                            "--out", str(tmp_path / "run"), "--workers", "1"])
        assert code == 0
        assert opened == ["truth.cfld", "probe.cfld"] + [f"{prefix}{j:04d}.cfld" for j in range(9)]

    def test_bad_init_mode_exits_2_before_any_dataset_read(self, tmp_path, opened):
        # the dataset has no noisy stack, so a late check would report that instead
        ds = tmp_path / "ds"
        sim_cfg = write_config(tmp_path / "sim.yaml", sim=dict(SIM_SECTION, noise=False))
        assert main_quietly(["simulate", "--config", sim_cfg, "--out", str(ds),
                             "--workers", "1"]) == (0, "")
        solver = dict(SOLVER_SECTION, init="zeros", data="noisy")
        cfg = write_config(tmp_path / "c.yaml", solver=solver)
        code, err = main_quietly(["reconstruct", "--config", cfg, "--dataset", str(ds),
                                  "--out", str(tmp_path / "run"), "--workers", "1"])
        assert (code, err) == (2, "error: config key 'solver.init' has invalid value 'zeros' "
                                  "(one of: ones, random)\n")
        assert opened == []
        assert not (tmp_path / "run").exists()

    def test_sweep_reads_its_stack_once_for_all_runs(self, tmp_path, dataset_dir, opened):
        solver = dict(SOLVER_SECTION, data="noisy", iterations=2)
        cfg = write_config(tmp_path / "c.yaml", solver=solver)
        code, _ = main_quietly(["sweep", "--config", cfg, "--dataset", str(dataset_dir),
                            "--out", str(tmp_path / "sweep"), "--workers", "1",
                            "--param", "alpha", "--values", "0.1,0.2,0.3"])
        assert code == 0
        assert opened == ["truth.cfld", "probe.cfld"] + [f"yn_{j:04d}.cfld" for j in range(9)]


class TestEvaluate:
    def test_truth_against_itself(self, dataset_dir, capsys):
        assert main(
            ["evaluate", "--recon", str(dataset_dir / "truth.cfld"),
             "--dataset", str(dataset_dir)]
        ) == 0
        assert float(capsys.readouterr().out) < 1e-14

    def test_global_phase_rotation_scores_zero(self, tmp_path, dataset_dir, capsys):
        truth = pk.read_cfld(dataset_dir / "truth.cfld")
        rotated = tmp_path / "rot.cfld"
        pk.write_cfld(rotated, np.exp(1.3j) * truth)
        assert main(["evaluate", "--recon", str(rotated), "--dataset", str(dataset_dir)]) == 0
        assert float(capsys.readouterr().out) < 1e-12

    def test_matches_run_summary_exactly(self, tmp_path, dataset_dir, capsys):
        solver = dict(SOLVER_SECTION, iterations=20)
        cfg = write_config(tmp_path / "c.yaml", solver=solver)
        out = tmp_path / "run"
        assert main(
            ["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
             "--out", str(out), "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["evaluate", "--recon", str(out / "recon.cfld"), "--dataset", str(dataset_dir)]
        ) == 0
        printed = float(capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        assert printed == summary["final_nrmse"]

    def test_shape_mismatch_exits_2(self, tmp_path, dataset_dir):
        small_field = tmp_path / "wrong.cfld"
        pk.write_cfld(small_field, np.ones((8, 8), complex))
        assert main(
            ["evaluate", "--recon", str(small_field), "--dataset", str(dataset_dir)]
        ) == 2

    @pytest.mark.parametrize("damage", ["huge_header", "trailing_bytes"])
    def test_file_size_not_matching_header_exits_2(self, tmp_path, dataset_dir, capsys, damage):
        recon = tmp_path / "recon.cfld"
        if damage == "huge_header":
            recon.write_bytes(struct.pack("<4sIQQ", b"CFLD", 1, 2**31, 2**31))
        else:
            recon.write_bytes((dataset_dir / "truth.cfld").read_bytes() + bytes(16))
        assert main(["evaluate", "--recon", str(recon), "--dataset", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {recon}: ") and err.count("\n") == 1

    def test_missing_recon_exits_2(self, tmp_path, dataset_dir):
        assert main(
            ["evaluate", "--recon", str(tmp_path / "nope.cfld"), "--dataset", str(dataset_dir)]
        ) == 2

    def test_manifest_not_json_exits_2(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        (data / "manifest.json").write_text("{\n")
        assert main(
            ["evaluate", "--recon", str(data / "truth.cfld"), "--dataset", str(data)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest.json: not valid JSON" in err


class TestSweep:
    def run(self, tmp_path, dataset_dir, args, solver_overrides=None):
        solver = dict(SOLVER_SECTION, iterations=10, **(solver_overrides or {}))
        cfg = write_config(tmp_path / "c.yaml", solver=solver)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", cfg, "--dataset", str(dataset_dir),
             "--out", str(out), "--workers", "1", *args]
        )
        return code, out

    def test_explicit_values(self, tmp_path, dataset_dir):
        code, out = self.run(
            tmp_path, dataset_dir, ["--param", "alpha", "--values", "0.0,0.5"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,final_nrmse,seconds"
        assert len(lines) == 3
        for sub in ("alpha_0", "alpha_0.5"):
            assert (out / sub / "recon.cfld").exists()
            assert (out / sub / "trace.csv").exists()

    def test_each_run_directory_has_a_summary(self, tmp_path, dataset_dir):
        code, out = self.run(
            tmp_path, dataset_dir, ["--param", "alpha", "--values", "0.0,0.5"]
        )
        assert code == 0
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            value, final, _ = map(float, line.split(","))
            summary = json.loads((out / f"alpha_{value:g}" / "summary.json").read_text())
            assert summary["solver"]["alpha"] == value
            assert summary["final_nrmse"] == final
            assert summary["iterations"] == 10
            assert summary["dataset"] == str(dataset_dir)

    def test_argmin_reported(self, tmp_path, dataset_dir):
        code, out = self.run(
            tmp_path, dataset_dir,
            ["--param", "beta", "--values", "0.3,0.45,0.6"],
            {"name": "sharp_plus"},
        )
        assert code == 0
        rows = [
            (float(a), float(b))
            for a, b, _ in (
                line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]
            )
        ]
        best = json.loads((out / "sweep_summary.json").read_text())
        assert best["best_nrmse"] == min(err for _, err in rows)
        assert (best["best_value"], best["best_nrmse"]) in rows

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_value_sweep_run_matches_reconstruct(self, tmp_path, dataset_dir, capsys,
                                                     workers):
        # the config's alpha is 0.1, so the sweep's one run is the reconstruction
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION, iterations=10))
        common = ["--config", cfg, "--dataset", str(dataset_dir), "--workers"]
        run, sweep = tmp_path / "run", tmp_path / "sweep"
        assert main(["reconstruct", *common, "1", "--out", str(run)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(f"; artifacts in {run}")
        assert main(["sweep", *common, workers, "--out", str(sweep), "--param", "alpha",
                     "--values", "0.1"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].endswith(f"; artifacts in {sweep / 'alpha_0.1'}")
        assert printed[1].startswith("best alpha=0.1 ") and len(printed) == 2

        def without_timing(run_dir):
            summary = json.loads((run_dir / "summary.json").read_text())
            del summary["wall_seconds"], summary["workers"]
            return (sorted(p.name for p in run_dir.iterdir()), summary,
                    (run_dir / "recon.cfld").read_bytes(),
                    trace_bytes_without_seconds(run_dir / "trace.csv"))

        assert without_timing(sweep / "alpha_0.1") == without_timing(run)

    def test_values_sharing_a_run_directory_exit_2(self, tmp_path, dataset_dir, capsys):
        # both values print as 0.1 under {value:g}, so the second run
        # would overwrite the first one's artifacts
        code, out = self.run(
            tmp_path, dataset_dir, ["--param", "alpha", "--values", "0.1,0.1000001"]
        )
        assert code == 2
        assert "alpha_0.1/" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, param", [("pmace", "beta"), ("sharp_plus", "alpha"),
                                             ("sharp", "kappa")])
    def test_param_of_another_solver_exits_2(self, tmp_path, dataset_dir, capsys, name, param):
        # the runs would all be identical, so the sweep would mean nothing
        code, out = self.run(
            tmp_path, dataset_dir, ["--param", param, "--values", "0.2,0.4"], {"name": name}
        )
        assert code == 2
        assert f"--param {param} is not a parameter of solver {name}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_invalid_value_exits_2_before_any_run(self, tmp_path, dataset_dir, capsys, bad):
        code, out = self.run(
            tmp_path, dataset_dir, ["--param", "alpha", "--values", f"0.1,{bad}"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: alpha must be finite and nonnegative\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_first_run_leaves_no_output(self, tmp_path, dataset_dir, monkeypatch):
        monkeypatch.setattr(pk.pmace, "agent_update", nan_agent_update(pk.pmace.agent_update))
        code, out = self.run(tmp_path, dataset_dir, ["--param", "alpha", "--values", "0.1,0.2"])
        assert code == 3
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_second_run_keeps_the_first_and_writes_no_sweep_files(
        self, tmp_path, dataset_dir, capsys, monkeypatch
    ):
        original = pk.pmace.mann_iterate
        solves = []

        def second_solve_diverges(*args, **kwargs):
            solves.append(kwargs)
            if len(solves) == 2:
                monkeypatch.setattr(pk.pmace, "agent_update",
                                    nan_agent_update(pk.pmace.agent_update))
            return original(*args, **kwargs)

        monkeypatch.setattr(pk.pmace, "mann_iterate", second_solve_diverges)
        code, out = self.run(tmp_path, dataset_dir, ["--param", "alpha", "--values", "0.1,0.2"])
        assert code == 3 and len(solves) == 2
        assert capsys.readouterr().err == "error: non-finite values in iterate at iteration 1\n"
        assert [p.name for p in out.iterdir()] == ["alpha_0.1"]
        assert sorted(p.name for p in (out / "alpha_0.1").iterdir()) == [
            "recon.cfld", "summary.json", "trace.csv"]
        assert json.loads((out / "alpha_0.1" / "summary.json").read_text())["solver"]["alpha"] == 0.1

    def test_three_value_sweep_sets_up_once(self, tmp_path, dataset_dir, monkeypatch):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(pk.cli, "make_init")
        counted(pk.sim, "load_dataset")
        code, out = self.run(tmp_path, dataset_dir, ["--param", "alpha", "--values", "0.1,0.2,0.3"],
                             {"init": "random"})
        assert code == 0 and len((out / "sweep.csv").read_text().splitlines()) == 4
        assert sorted(calls) == ["load_dataset", "make_init"]
        # the runs share one starting image, and the solves leave it as it was
        cfg = write_config(tmp_path / "r.yaml", solver=dict(SOLVER_SECTION, iterations=10,
                                                           init="random", alpha=0.3))
        assert main_quietly(["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
                             "--out", str(tmp_path / "run"), "--workers", "1"]) == (0, "")
        assert ((out / "alpha_0.3" / "recon.cfld").read_bytes()
                == (tmp_path / "run" / "recon.cfld").read_bytes())

    def test_empty_values_exit_2(self, tmp_path, dataset_dir):
        code, _ = self.run(tmp_path, dataset_dir, ["--param", "alpha", "--values", ""])
        assert code == 2

    def test_no_value_source_exits_2(self, tmp_path, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, dataset_dir, ["--param", "alpha"])
        assert exc.value.code == 2

    def test_unknown_param_rejected_by_parser(self, tmp_path, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, dataset_dir, ["--param", "gamma", "--values", "1"])
        assert exc.value.code == 2


class TestConfigErrors:
    def test_unparseable_yaml_exits_2(self, tmp_path, dataset_dir):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("solver: [unclosed\n")
        assert main(
            ["reconstruct", "--config", str(cfg), "--dataset", str(dataset_dir),
             "--out", str(tmp_path / "o")]
        ) == 2

    def test_non_mapping_config_exits_2(self, tmp_path, dataset_dir):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("just a string\n")
        assert main(
            ["reconstruct", "--config", str(cfg), "--dataset", str(dataset_dir),
             "--out", str(tmp_path / "o")]
        ) == 2

    def test_missing_config_file_exits_2(self, tmp_path, dataset_dir):
        assert main(
            ["reconstruct", "--config", str(tmp_path / "none.yaml"),
             "--dataset", str(dataset_dir), "--out", str(tmp_path / "o")]
        ) == 2

    def test_missing_required_sim_key_exits_2(self, tmp_path):
        sim = {k: v for k, v in SIM_SECTION.items() if k != "image_shape"}
        cfg = write_config(tmp_path / "c.yaml", sim=sim)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_grid_too_large_exits_2(self, tmp_path):
        sim = dict(SIM_SECTION, spacing=40)
        cfg = write_config(tmp_path / "c.yaml", sim=sim)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["simulate", "reconstruct", "sweep"]),
           name=st.sampled_from(["pmace", "sharp"]), at_top=st.booleans(), key=UNREAD_KEYS,
           value=any_value())
    @example(command="reconstruct", name="pmace", at_top=False, key="alpah", value=0.5)
    @example(command="reconstruct", name="pmace", at_top=False, key="max_iters", value=2)
    @example(command="sweep", name="sharp", at_top=False, key="variant", value="sharp")
    @example(command="simulate", name="pmace", at_top=False, key="noise_sed", value=5)
    @example(command="simulate", name="pmace", at_top=True, key="workers", value=1)
    @example(command="reconstruct", name="pmace", at_top=True, key="workers", value=1)
    def test_key_that_no_command_reads_exits_2_before_the_work(
        self, dataset_dir, command, name, at_top, key, value
    ):
        section = "sim" if command == "simulate" else "solver"
        read = {"sim": SIM_SECTION, "solver": SOLVER_KEYS}[section]
        assume(key not in (("sim", "solver") if at_top else read))
        cfg = {"sim": dict(SIM_SECTION),
               "solver": dict(SOLVER_SECTION, name=name, beta=0.45, iterations=2)}
        (cfg if at_top else cfg[section])[key] = value
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for work in (*WORK, "ptychokit.sim.make_scan_grid", "ptychokit.sim.synth_probe"):
                mp.setattr(work, no_work)
            config, out = Path(tmp) / "c.yaml", Path(tmp) / "o"
            config.write_text(yaml.safe_dump(cfg))
            argv = [command, "--config", str(config), "--out", str(out), "--workers", "1"]
            if command != "simulate":
                argv += ["--dataset", str(dataset_dir)]
            if command == "sweep":
                argv += ["--param", "alpha" if name == "pmace" else "beta", "--values", "0.1,0.2"]
            code, err = main_quietly(argv)
            assert not out.exists()
        named = key if at_top else f"{section}.{key}"
        assert (code, err) == (2, f"error: config key '{named}' is not read by any command\n")

    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_zero_spacing_on_a_grid_of_many_positions_exits_2(
        self, tmp_path, dataset_dir, capsys, monkeypatch, source
    ):
        if source == "config":
            monkeypatch.setattr(pk.sim, "synth_probe", no_work)
            cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, spacing=0))
            argv = ["simulate", "--config", cfg]
            prefix = "error: spacing "
        else:
            data = manifest_with_spacing(tmp_path, dataset_dir, 0)
            cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION))
            argv = ["reconstruct", "--config", cfg, "--dataset", str(data)]
            prefix = f"error: {data / 'manifest.json'}: spacing "
        assert main([*argv, "--out", str(tmp_path / "o"), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_manifest_spacing_past_the_image_names_the_manifest(
        self, tmp_path, dataset_dir, capsys
    ):
        data = manifest_with_spacing(tmp_path, dataset_dir, 40)
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION))
        argv = ["reconstruct", "--config", cfg, "--dataset", str(data), "--out",
                str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'manifest.json'}: 3x3 grid with spacing 40 and patch 16 "
            "spans 96x96, exceeding 48x48\n")
        assert not (tmp_path / "o").exists()

    def test_no_output_location_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg])
        assert exc.value.code == 2

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # stands in for a sim.image_shape the allocator refuses; no large array is requested
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("ptychokit.sim.synth_object", no_memory)
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert not out.exists()

    def test_probe_shape_mismatch_exits_2(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        pk.write_cfld(data / "probe.cfld", pk.read_cfld(data / "probe.cfld")[:, :1])
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION))
        assert main(
            ["reconstruct", "--config", cfg, "--dataset", str(data),
             "--out", str(tmp_path / "o"), "--workers", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "probe_size" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["pmace", "sharp", "sharp_plus"]),
           key=st.sampled_from(SOLVER_KEYS))
    def test_mutated_solver_key_exits_0_2_or_3(self, dataset_dir, data, name, key):
        solver = dict(SOLVER_SECTION, name=name, beta=0.45, iterations=3)
        solver[key] = data.draw(solver_value(key), label=key)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp) / "c.yaml", solver=solver)
            out = Path(tmp) / "o"
            code = main(
                ["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
                 "--out", str(out), "--workers", "1"]
            )
            assert code == 0 or not out.exists()
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("key, value", [
        ("image_shape", 5), ("grid_dims", [3]), ("spacing", 8.5), ("noise", "off"),
        ("image_shape", [48, 48.5]), ("probe_size", True), ("noise_seed", [9]),
        ("r_p", [1e5]), ("object_seed", -1), ("probe_seed", -1), ("noise_seed", -1),
        ("spacing", -8), ("grid_dims", [3, -3]), ("image_shape", [-48, 48]),
    ])
    def test_sim_value_of_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, **{key: value}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key 'sim.{key}'") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("noise", [True, False])
    def test_sim_normalization_outside_its_modes_exits_2(self, tmp_path, capsys, noise):
        # refused even with noise off, where the value would go unused
        sim = dict(SIM_SECTION, noise=noise, normalization="bogus")
        cfg = write_config(tmp_path / "c.yaml", sim=sim)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err == ("error: config key 'sim.normalization' has invalid "
                                           "value 'bogus' (one of: global-max, per-pattern-max)\n")
        assert not out.exists()

    def test_sim_rate_is_not_checked_with_noise_off(self, tmp_path):
        # r_p's range is add_poisson_noise's own check, and with noise off nothing draws
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, noise=False, r_p=-1.0))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["r_p"] is None

    @pytest.mark.parametrize("r_p", [float("nan"), float("inf"), ABOVE_LAM_MAX, -1.0, 0.0])
    def test_sim_rate_outside_zero_to_inf_exits_2(self, tmp_path, capsys, monkeypatch, r_p):
        # refused where it is read, before any simulation work
        monkeypatch.setattr(pk.sim, "synth_object", no_work)
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, r_p=r_p))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {RATE_RANGE}, got {r_p!r}\n"
        assert not out.exists()

    def test_probe_smaller_than_8_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pk.sim, "synth_object", no_work)
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, probe_size=4))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err == "error: probe size must be at least 8\n"
        assert not out.exists()

    def test_sim_rate_whose_scale_factor_underflows_exits_2(self, tmp_path, capsys):
        # the 48² instance's peak intensity is about 11, so r_p / peak rounds to 0
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, r_p=5e-324))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scale factor sqrt(r_p / peak) is not a positive finite "
                              "number for r_p = 5e-324 and peak intensity ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_sim_rate_at_numpys_poisson_limit_exits_0(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION, r_p=POISSON_LAM_MAX))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["r_p"] == POISSON_LAM_MAX

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), key=st.sampled_from(tuple(SIM_SECTION)))
    def test_mutated_sim_key_exits_0_or_2(self, data, key):
        # image_shape entries stay small, so no example allocates a large image
        ints = st.integers(-64, 64) if key == "image_shape" else st.integers()
        sim = dict(SIM_SECTION)
        set_or_delete(sim, key, data.draw(any_value(ints=ints) | st.just(DELETE), label=key))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp) / "c.yaml", sim=sim)
            code, err = main_quietly(["simulate", "--config", cfg, "--out", str(Path(tmp) / "o"),
                                      "--workers", "1"])
        assert code in (0, 2)
        assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1)

    @pytest.mark.parametrize("value", [DELETE, "8", 8.0, None, -14])
    def test_manifest_spacing_missing_or_mistyped_exits_2(
        self, tmp_path, dataset_dir, capsys, value
    ):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        set_or_delete(manifest, "spacing", value)
        (data / "manifest.json").write_text(json.dumps(manifest))
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION))
        assert main(
            ["reconstruct", "--config", cfg, "--dataset", str(data),
             "--out", str(tmp_path / "o"), "--workers", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest.json" in err and "'spacing'" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), key=st.sampled_from(MANIFEST_KEYS))
    def test_mutated_manifest_key_exits_0_or_2(self, dataset_dir, data, key):
        solver = dict(SOLVER_SECTION, iterations=2, data="noisy")
        with tempfile.TemporaryDirectory() as tmp:
            ds = Path(tmp) / "ds"
            shutil.copytree(dataset_dir, ds)
            manifest = json.loads((ds / "manifest.json").read_text())
            set_or_delete(manifest, key, data.draw(any_value() | st.just(DELETE), label=key))
            (ds / "manifest.json").write_text(json.dumps(manifest))
            cfg = write_config(Path(tmp) / "c.yaml", solver=solver)
            out = Path(tmp) / "o"
            code, err = main_quietly(["reconstruct", "--config", cfg, "--dataset", str(ds),
                                      "--out", str(out), "--workers", "1"])
            assert code == 0 or not out.exists()
        assert code in (0, 2)
        assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1)

    @pytest.mark.parametrize("workers", [[1], {"a": 1}, 2.7, True])
    def test_worker_count_that_is_not_whole_exits_2(
        self, tmp_path, dataset_dir, capsys, workers
    ):
        # each value typed after --workers as Python prints it; the parser refuses all four
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION))
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
                  "--out", str(tmp_path / "o"), "--workers", str(workers)])
        assert exc.value.code == 2
        assert "argument --workers: invalid int value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, work", [
        ("simulate", "ptychokit.sim.synth_object"),
        ("reconstruct", "ptychokit.pmace.mann_iterate"),
        ("sweep", "ptychokit.pmace.mann_iterate"),
    ])
    @pytest.mark.parametrize("out", ["afile", "afile/run"])
    def test_out_that_cannot_be_a_directory_exits_2_before_the_work(
        self, tmp_path, dataset_dir, capsys, monkeypatch, command, work, out
    ):
        monkeypatch.setattr(work, no_work)
        (tmp_path / "afile").write_text("kept")
        cfg = write_config(tmp_path / "c.yaml", sim=dict(SIM_SECTION), solver=dict(SOLVER_SECTION))
        extra = {
            "simulate": [],
            "reconstruct": ["--dataset", str(dataset_dir)],
            "sweep": ["--dataset", str(dataset_dir), "--param", "alpha", "--values", "0.1"],
        }[command]
        assert main(
            [command, "--config", cfg, "--out", str(tmp_path / out), "--workers", "1", *extra]
        ) == 2
        assert capsys.readouterr().err == (
            f"error: --out {tmp_path / out}: {tmp_path / 'afile'} exists and is not a directory\n"
        )
        assert (tmp_path / "afile").read_text() == "kept"

    @settings(max_examples=40, deadline=None)
    @given(first=st.sampled_from(OUT_KINDS), second=st.sampled_from(OUT_KINDS),
           premade=st.booleans())
    def test_second_command_into_one_out_exits_2_before_the_work(
        self, dataset_dir, first, second, premade
    ):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            if premade:  # an empty directory made beforehand is a valid --out
                out.mkdir()
            assert main_quietly(out_command(first, Path(tmp), dataset_dir, out)) == (0, "")
            before = tree_bytes(out)
            with pytest.MonkeyPatch.context() as mp:
                for work in WORK:
                    mp.setattr(work, lambda *args, **kwargs: pytest.fail("work ran"))
                code, err = main_quietly(out_command(second, Path(tmp), dataset_dir, out))
            assert (code, err) == (2, f"error: --out {out} is a directory that is not empty\n")
            assert tree_bytes(out) == before

    def test_bad_worker_count_exits_2(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path / "c.yaml", solver=dict(SOLVER_SECTION))
        assert main(
            ["reconstruct", "--config", cfg, "--dataset", str(dataset_dir),
             "--out", str(tmp_path / "o"), "--workers", "0"]
        ) == 2
        assert capsys.readouterr().err == "error: --workers must be at least 1\n"
        assert not (tmp_path / "o").exists()


def child_env(bin_dir=None):
    """Environment for a child process that imports the ptychokit under test.

    The package's parent directory goes first on PYTHONPATH, so the child
    does not depend on how pytest itself was started; ``bin_dir``, if given,
    goes first on PATH.
    """
    env = dict(os.environ)
    src = str(Path(pk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def declared_console_script(name):
    """``(module, attr)`` of ``name`` in pyproject.toml's [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"][name]
    module, attr = target.split(":")
    return module, attr


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ptychokit")
    for sub in ("simulate", "reconstruct", "sweep", "evaluate"):
        assert sub in proc.stdout


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        sim = dict(SIM_SECTION, noise=False)
        cfg = write_config(tmp_path / "c.yaml", sim=sim)
        out = tmp_path / "ds"
        proc = subprocess.run(
            [sys.executable, "-m", "ptychokit", "simulate", "--config", cfg,
             "--out", str(out), "--workers", "1"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()

    def test_console_script_help(self, tmp_path):
        # The same wrapper an installer writes for the declared entry point.
        module, attr = declared_console_script("ptychokit")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "ptychokit"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        proc = subprocess.run(
            ["ptychokit", "--help"], capture_output=True, text=True,
            env=child_env(bin_dir),
        )
        assert_help_lists_subcommands(proc)

    def test_no_command_loads_scipy(self, tmp_path):
        # the package needs NumPy only; a fresh process runs every command
        sim_cfg = write_config(tmp_path / "sim.yaml", sim=dict(SIM_SECTION))
        solver_cfg = write_config(tmp_path / "solver.yaml",
                                  solver=dict(SOLVER_SECTION, iterations=3))
        ds, run, swp = (str(tmp_path / name) for name in ("ds", "run", "sweep"))
        script = (
            "import contextlib, io, sys\n"
            "from ptychokit.cli import main\n"
            "def quiet(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv[0]\n"
            f"quiet(['simulate', '--config', {sim_cfg!r}, '--out', {ds!r}, '--workers', '2'])\n"
            f"quiet(['reconstruct', '--config', {solver_cfg!r}, '--dataset', {ds!r},"
            f" '--out', {run!r}, '--workers', '2'])\n"
            f"quiet(['evaluate', '--recon', {run + '/recon.cfld'!r}, '--dataset', {ds!r}])\n"
            f"quiet(['sweep', '--config', {solver_cfg!r}, '--dataset', {ds!r}, '--out', {swp!r},"
            " '--param', 'alpha', '--values', '0.1,0.2', '--workers', '1'])\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(shutil.which("ptychokit") is None,
                        reason="no installed ptychokit console script on PATH")
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            ["ptychokit", "--help"], capture_output=True, text=True, env=child_env()
        )
        assert_help_lists_subcommands(proc)
