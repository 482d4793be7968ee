"""End-to-end and unit tests for the command-line interface."""

import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from sparsescan.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _density_list,
    main,
    read_config_file,
    resolve_threads,
)
from sparsescan.core import save_image
from sparsescan.features import FeatureStats
from sparsescan.numerics import ROW_TILE
from sparsescan.recon import IdwParams
from sparsescan.regress import ErdModel, MlpModel, load_model, save_model
from sparsescan.regress.mlp import init_params
from sparsescan.regress.modelio import serialize_model
from sparsescan.synth import blob_image


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("SLADS_THREADS", raising=False)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Two training images, one test image, one small trained lsq model."""
    root = tmp_path_factory.mktemp("cli")
    for name, seed in (("train_a", 0), ("train_b", 1), ("test_img", 9)):
        save_image(root / f"{name}.pgm", blob_image(size=24, seed=seed).values)
    rc = main(
        [
            "train",
            "--images",
            str(root / "train_a.pgm"),
            str(root / "train_b.pgm"),
            "--regressor",
            "lsq",
            "--densities",
            "0.1,0.3",
            "--samples-per-level",
            "40",
            "--seed",
            "3",
            "--out",
            str(root / "m.slnm"),
        ]
    )
    assert rc == EXIT_OK
    return root


def run_cli(*argv):
    return main([str(a) for a in argv])


def untrained_nn_model():
    weights, biases = init_params(6, seed=1)
    return ErdModel(
        kind="nn",
        payload=MlpModel(weights=tuple(weights), biases=tuple(biases), activation="relu"),
        stats=FeatureStats(means=np.zeros(6), stds=np.full(6, 20.0)),
        idw=IdwParams(),
    )


class TestHelpers:
    def test_resolve_threads_matrix(self, monkeypatch):
        monkeypatch.delenv("SLADS_THREADS", raising=False)
        assert resolve_threads() == 1
        monkeypatch.setenv("SLADS_THREADS", "")
        assert resolve_threads() == 1
        monkeypatch.setenv("SLADS_THREADS", "5")
        assert resolve_threads() == 5
        monkeypatch.setenv("SLADS_THREADS", "0")
        assert resolve_threads() == (os.cpu_count() or 1)
        monkeypatch.setenv("SLADS_THREADS", "-2")
        with pytest.raises(UsageError):
            resolve_threads()
        monkeypatch.setenv("SLADS_THREADS", "many")
        with pytest.raises(UsageError):
            resolve_threads()

    def test_read_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "seed = 4\n"
            "noise-sigma=2.5  # trailing note\n"
            "\n"
            "budget=0.3\n"
        )
        assert read_config_file(cfg) == {"seed": "4", "noise_sigma": "2.5", "budget": "0.3"}
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(UsageError):
            read_config_file(bad)
        with pytest.raises(UsageError):
            read_config_file(tmp_path / "absent.cfg")

    def test_density_list(self):
        assert _density_list("0.1,0.2,0.4") == (0.1, 0.2, 0.4)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _density_list("a,b")
        with pytest.raises(argparse.ArgumentTypeError):
            _density_list(",")

    def test_bad_invocations_return_usage(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["train", "--nope"]) == EXIT_USAGE
        capsys.readouterr()


class TestTrain:
    def test_model_file_written_and_loadable(self, workdir, capsys):
        model = load_model(workdir / "m.slnm")
        assert model.kind == "lsq"
        assert model.pretrained is False
        assert len(model.extra["image_sha256"]) == 2
        capsys.readouterr()

    def test_training_is_deterministic(self, workdir, tmp_path, capsys):
        args = [
            "train",
            "--images",
            workdir / "train_a.pgm",
            "--regressor",
            "lsq",
            "--densities",
            "0.2",
            "--samples-per-level",
            "30",
            "--seed",
            "11",
        ]
        a, b = tmp_path / "a.slnm", tmp_path / "b.slnm"
        assert run_cli(*args, "--out", a) == EXIT_OK
        assert run_cli(*args, "--out", b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_summary_lines_printed(self, workdir, tmp_path, capsys):
        out = tmp_path / "m2.slnm"
        rc = run_cli(
            "train",
            "--images",
            workdir / "train_a.pgm",
            "--regressor",
            "lsq",
            "--densities",
            "0.2",
            "--samples-per-level",
            "30",
            "--out",
            out,
        )
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "trained kind=lsq rows=30" in stdout
        assert f"wrote {out}" in stdout

    def test_nn_training_via_cli(self, workdir, tmp_path, capsys):
        out = tmp_path / "nn.slnm"
        rc = run_cli(
            "train",
            "--images",
            workdir / "train_a.pgm",
            "--regressor",
            "nn",
            "--densities",
            "0.2",
            "--samples-per-level",
            "30",
            "--seed",
            "7",
            "--out",
            out,
        )
        assert rc == EXIT_OK
        assert load_model(out).kind == "nn"
        capsys.readouterr()

    def test_db_export(self, workdir, tmp_path, capsys):
        db = tmp_path / "db.csv"
        rc = run_cli(
            "train",
            "--images",
            workdir / "train_a.pgm",
            "--regressor",
            "lsq",
            "--densities",
            "0.2",
            "--samples-per-level",
            "25",
            "--out",
            tmp_path / "m.slnm",
            "--db-out",
            db,
        )
        assert rc == EXIT_OK
        lines = db.read_text().splitlines()
        assert lines[0] == "image_id,density,f1,f2,f3,f4,f5,f6,rd"
        assert len(lines) == 1 + 25
        assert lines[1].startswith("train_a,")
        capsys.readouterr()

    def test_bad_choices_are_usage_errors(self, workdir, tmp_path, capsys):
        base = ["train", "--images", workdir / "train_a.pgm", "--out", tmp_path / "x.slnm"]
        assert run_cli(*base, "--regressor", "forest") == EXIT_USAGE
        assert "lsq" in capsys.readouterr().err
        assert run_cli(*base, "--regressor", "nn", "--activation", "tanh") == EXIT_USAGE
        capsys.readouterr()

    def test_missing_image_is_io_error(self, tmp_path, capsys):
        rc = run_cli(
            "train", "--images", tmp_path / "absent.pgm", "--out", tmp_path / "m.slnm"
        )
        assert rc == EXIT_IO
        capsys.readouterr()

    def test_config_file_feeds_defaults_cli_wins(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("regressor=lsq\ndensities=0.2\nsamples_per_level=30\n")
        out = tmp_path / "m.slnm"
        rc = run_cli(
            "train",
            "--images",
            workdir / "train_a.pgm",
            "--config",
            cfg,
            "--samples-per-level",
            "20",  # overrides the config's 30
            "--out",
            out,
            "--db-out",
            tmp_path / "db.csv",
        )
        assert rc == EXIT_OK
        assert load_model(out).kind == "lsq"
        assert len((tmp_path / "db.csv").read_text().splitlines()) == 1 + 20
        capsys.readouterr()


class TestRun:
    def run_args(self, workdir, out, **extra):
        argv = [
            "run",
            "--model",
            workdir / "m.slnm",
            "--image",
            workdir / "test_img.pgm",
            "--initial",
            "0.05",
            "--budget",
            "0.2",
            "--densities",
            "0.1,0.2",
            "--seed",
            "1",
            "--out",
            out,
        ]
        for k, v in extra.items():
            argv.extend([f"--{k}", v])
        return argv

    def test_artifacts_and_summary(self, workdir, tmp_path, capsys):
        out = tmp_path / "runout"
        assert run_cli(*self.run_args(workdir, out)) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "measured 116 pixels (20% budget), psnr " in stdout
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "effective.cfg",
            "history.csv",
            "mask_010.pgm",
            "mask_020.pgm",
            "recon_010.pgm",
            "recon_020.pgm",
        ]
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "step,row,col,value,predicted_erd"
        assert len(history) == 1 + 116
        cfg = dict(l.split("=", 1) for l in (out / "effective.cfg").read_text().splitlines())
        assert cfg["budget"] == "0.2" and cfg["seed"] == "1"
        assert cfg["window"] == "15" and cfg["neighbors"] == "10"  # from the model
        assert cfg["matmul"] == "einsum"  # lsq predicts through einsum

    @pytest.mark.parametrize("kind", ("lsq", "nn"))
    def test_model_with_non_finite_weight_is_a_format_error(self, workdir, tmp_path, kind, capsys):
        # a file whose CRC matches but whose last array ends in NaN
        if kind == "lsq":
            blob = bytearray((workdir / "m.slnm").read_bytes())
        else:
            blob = bytearray(serialize_model(untrained_nn_model()))
        struct.pack_into("<d", blob, len(blob) - 12, float("nan"))
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        bad = tmp_path / "nan.slnm"
        bad.write_bytes(bytes(blob))
        argv = self.run_args(workdir, tmp_path / "runout")
        argv[argv.index("--model") + 1] = bad
        assert run_cli(*argv) == EXIT_IO
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "runout").exists()

    def test_nn_run_reports_tiled_matmul(self, workdir, tmp_path, capsys):
        save_model(untrained_nn_model(), tmp_path / "nn.slnm")
        argv = self.run_args(workdir, tmp_path / "runout")
        argv[argv.index("--model") + 1] = tmp_path / "nn.slnm"
        assert run_cli(*argv) == EXIT_OK
        lines = (tmp_path / "runout" / "effective.cfg").read_text().splitlines()
        cfg = dict(l.split("=", 1) for l in lines)
        assert cfg["matmul"] == f"blas-tile{ROW_TILE}"
        capsys.readouterr()

    def test_checkpoints_sharing_an_artifact_name_are_usage_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "runout"
        argv = self.run_args(workdir, out)
        argv[argv.index("--densities") + 1] = "0.1,0.104,0.2"
        assert run_cli(*argv) == EXIT_USAGE
        assert "same whole percent" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, workdir, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*self.run_args(workdir, a)) == EXIT_OK
        assert run_cli(*self.run_args(workdir, b)) == EXIT_OK
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        for name in ("mask_020.pgm", "recon_020.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_window_flag_overrides_model(self, workdir, tmp_path, capsys):
        out = tmp_path / "runout"
        assert run_cli(*self.run_args(workdir, out, window="7", neighbors="6")) == EXIT_OK
        cfg = dict(l.split("=", 1) for l in (out / "effective.cfg").read_text().splitlines())
        assert cfg["window"] == "7" and cfg["neighbors"] == "6"
        capsys.readouterr()

    def test_initial_above_budget_is_usage_error(self, workdir, tmp_path, capsys):
        rc = run_cli(
            "run",
            "--model",
            workdir / "m.slnm",
            "--image",
            workdir / "test_img.pgm",
            "--initial",
            "0.5",
            "--budget",
            "0.4",
            "--out",
            tmp_path / "x",
        )
        assert rc == EXIT_USAGE
        capsys.readouterr()

    def test_missing_and_corrupt_model_are_io_errors(self, workdir, tmp_path, capsys):
        rc = run_cli(
            "run",
            "--model",
            tmp_path / "absent.slnm",
            "--image",
            workdir / "test_img.pgm",
            "--out",
            tmp_path / "x",
        )
        assert rc == EXIT_IO
        blob = bytearray((workdir / "m.slnm").read_bytes())
        blob[20] ^= 0xFF
        bad = tmp_path / "bad.slnm"
        bad.write_bytes(bytes(blob))
        rc = run_cli(
            "run",
            "--model",
            bad,
            "--image",
            workdir / "test_img.pgm",
            "--out",
            tmp_path / "y",
        )
        assert rc == EXIT_IO
        capsys.readouterr()

    def test_malformed_image_is_io_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        rc = run_cli(
            "run", "--model", workdir / "m.slnm", "--image", bad, "--out", tmp_path / "x"
        )
        assert rc == EXIT_IO
        capsys.readouterr()

    def test_bad_thread_env_is_usage_error(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLADS_THREADS", "lots")
        assert run_cli(*self.run_args(workdir, tmp_path / "x")) == EXIT_USAGE
        capsys.readouterr()


class TestEval:
    def eval_args(self, workdir, out, *extra):
        return [
            "eval",
            "--model",
            workdir / "m.slnm",
            "--method",
            "random",
            "--image",
            workdir / "test_img.pgm",
            "--initial",
            "0.05",
            "--budget",
            "0.2",
            "--densities",
            "0.1,0.2",
            "--repeats",
            "2",
            "--seed",
            "0",
            "--out",
            out,
            *extra,
        ]

    def test_report_schema_and_sidecar(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run_cli(*self.eval_args(workdir, out)) == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "method,density,psnr_mean,psnr_std,distortion_mean,wall_time_mean_s"
        assert len(lines) == 1 + 2 * 2  # two methods x two densities
        methods = [l.split(",")[0] for l in lines[1:]]
        assert methods == ["m", "m", "random", "random"]
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) > 0 and float(cells[3]) >= 0
            assert float(cells[5]) >= 0  # wall time present by default
        side = dict(
            l.split("=", 1) for l in (tmp_path / "report.csv.cfg").read_text().splitlines()
        )
        assert side["methods"] == "m;random"
        assert side["window"] == "m:15;random:15"  # resolved per method
        assert side["neighbors"] == "m:10;random:10"
        assert side["matmul"] == "m:einsum;random:none"
        assert side["repeats"] == "2"

    def test_no_walltime_makes_reports_reproducible(self, workdir, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.eval_args(workdir, a, "--no-walltime")) == EXIT_OK
        assert run_cli(*self.eval_args(workdir, b, "--no-walltime")) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert ",nan" in a.read_text().splitlines()[1]
        capsys.readouterr()

    def test_parallel_workers_match_serial_report(self, workdir, tmp_path, monkeypatch, capsys):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(*self.eval_args(workdir, serial, "--no-walltime")) == EXIT_OK
        monkeypatch.setenv("SLADS_THREADS", "2")
        assert run_cli(*self.eval_args(workdir, parallel, "--no-walltime")) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()
        capsys.readouterr()

    def test_config_window_and_neighbors_match_flags(self, workdir, tmp_path, capsys):
        flags, from_cfg, plain = tmp_path / "f.csv", tmp_path / "c.csv", tmp_path / "p.csv"
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("window=3\nneighbors=4\n")
        argv = self.eval_args(workdir, flags, "--no-walltime", "--window", "3", "--neighbors", "4")
        assert run_cli(*argv) == EXIT_OK
        assert run_cli(*self.eval_args(workdir, from_cfg, "--no-walltime", "--config", cfg)) == 0
        assert run_cli(*self.eval_args(workdir, plain, "--no-walltime")) == EXIT_OK
        assert flags.read_bytes() == from_cfg.read_bytes()
        assert flags.read_bytes() != plain.read_bytes()  # the override took effect
        sides = [
            dict(l.split("=", 1) for l in Path(f"{p}.cfg").read_text().splitlines())
            for p in (flags, from_cfg)
        ]
        for side in sides:
            assert side["window"] == "m:3;random:3" and side["neighbors"] == "m:4;random:4"
        capsys.readouterr()

    def test_random_at_full_budget_hits_the_cap(self, workdir, tmp_path, capsys):
        out = tmp_path / "full.csv"
        rc = run_cli(
            "eval",
            "--method",
            "random",
            "--image",
            workdir / "test_img.pgm",
            "--initial",
            "0.05",
            "--budget",
            "1.0",
            "--densities",
            "1.0",
            "--repeats",
            "2",
            "--out",
            out,
        )
        assert rc == EXIT_OK
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[0] == "random"
        assert float(cells[2]) == 99.0 and float(cells[3]) == 0.0
        assert float(cells[4]) == 0.0
        capsys.readouterr()

    def test_single_repeat_has_zero_std(self, workdir, tmp_path, capsys):
        out = tmp_path / "one.csv"
        args = self.eval_args(workdir, out)
        args[args.index("2")] = "1"  # repeats
        assert run_cli(*args) == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) == 0.0
        capsys.readouterr()

    def test_usage_errors(self, workdir, tmp_path, capsys):
        rc = run_cli(
            "eval", "--image", workdir / "test_img.pgm", "--out", tmp_path / "x.csv"
        )
        assert rc == EXIT_USAGE  # nothing to evaluate
        rc = run_cli(
            "eval",
            "--method",
            "oracle",
            "--image",
            workdir / "test_img.pgm",
            "--out",
            tmp_path / "x.csv",
        )
        assert rc == EXIT_USAGE
        args = self.eval_args(workdir, tmp_path / "x.csv")
        args[args.index("--repeats") + 1] = "0"
        assert run_cli(*args) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_model_fails_before_any_runs(self, workdir, tmp_path, capsys):
        rc = run_cli(
            "eval",
            "--model",
            tmp_path / "absent.slnm",
            "--image",
            workdir / "test_img.pgm",
            "--out",
            tmp_path / "x.csv",
        )
        assert rc == EXIT_IO
        assert not (tmp_path / "x.csv").exists()
        capsys.readouterr()

    def test_methods_sharing_a_label_are_usage_error(self, workdir, tmp_path, monkeypatch, capsys):
        # labels are file names without extension; two methods under one label
        # would be pooled into one set of report rows
        def no_runs(task):
            raise AssertionError("a run started")

        monkeypatch.setattr("sparsescan.cli._eval_one", no_runs)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            shutil.copy(workdir / "m.slnm", tmp_path / sub / "m.slnm")
        shutil.copy(workdir / "m.slnm", tmp_path / "random.slnm")
        image = workdir / "test_img.pgm"
        out = tmp_path / "x.csv"
        for models, method in (
            ([tmp_path / "a" / "m.slnm", tmp_path / "b" / "m.slnm"], ()),
            ([tmp_path / "random.slnm"], ("--method", "random")),
        ):
            rc = run_cli("eval", "--model", *models, *method, "--image", image, "--out", out)
            assert rc == EXIT_USAGE
            assert "label" in capsys.readouterr().err
            assert not out.exists() and not Path(f"{out}.cfg").exists()


class TestPretrain:
    def test_builtin_texture_produces_runnable_model(self, workdir, tmp_path, capsys):
        out = tmp_path / "pre.slnm"
        rc = run_cli(
            "pretrain",
            "--regressor",
            "lsq",
            "--densities",
            "0.1",
            "--samples-per-level",
            "30",
            "--out",
            out,
        )
        assert rc == EXIT_OK
        model = load_model(out)
        assert model.pretrained is True
        assert len(model.extra["image_sha256"][0]) == 64
        rc = run_cli(
            "run",
            "--model",
            out,
            "--image",
            workdir / "test_img.pgm",
            "--initial",
            "0.05",
            "--budget",
            "0.1",
            "--densities",
            "0.1",
            "--out",
            tmp_path / "runout",
        )
        assert rc == EXIT_OK
        capsys.readouterr()

    def test_user_image_is_hashed_into_header(self, workdir, tmp_path, capsys):
        import hashlib

        out = tmp_path / "pre.slnm"
        rc = run_cli(
            "pretrain",
            "--image",
            workdir / "train_a.pgm",
            "--regressor",
            "lsq",
            "--densities",
            "0.2",
            "--samples-per-level",
            "20",
            "--out",
            out,
        )
        assert rc == EXIT_OK
        model = load_model(out)
        want = hashlib.sha256((workdir / "train_a.pgm").read_bytes()).hexdigest()
        assert model.extra["image_sha256"] == [want]
        assert model.pretrained is True
        capsys.readouterr()


REPO_ROOT = Path(__file__).resolve().parents[1]


def _declared_entry_point():
    """The ``module:attr`` that ``[project.scripts]`` in pyproject.toml gives ``sparsescan``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "sparsescan" in scripts, "[project.scripts] declares no 'sparsescan'"
    return scripts["sparsescan"]


def _write_launcher(bin_dir, entry_point):
    """Write the launcher an installer generates for a console-script entry point."""
    module, _, attr = entry_point.partition(":")
    assert module and attr, f"malformed entry point {entry_point!r}"
    bin_dir.mkdir(parents=True, exist_ok=True)
    launcher = bin_dir / "sparsescan"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    return launcher


def _can_build_wheels():
    for module in ("setuptools.command.bdist_wheel", "wheel.bdist_wheel"):
        try:
            __import__(module)
        except ImportError:
            continue
        return True
    return False


def _assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sparsescan")
    for word in ("train", "pretrain", "run", "eval"):
        assert word in proc.stdout


class TestConsoleScript:
    def test_installed_entry_point_answers_help(self, tmp_path):
        exe = _write_launcher(tmp_path / "bin", _declared_entry_point())
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [str(exe), "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=env,
        )
        _assert_help_lists_subcommands(proc)

    @pytest.mark.skipif(not _can_build_wheels(), reason="no bdist_wheel command")
    def test_pip_installed_console_script_answers_help(self, tmp_path):
        pytest.importorskip("setuptools", minversion="68")
        project = tmp_path / "project"
        project.mkdir()
        shutil.copy2(REPO_ROOT / "pyproject.toml", project)
        shutil.copytree(
            REPO_ROOT / "src", project / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        venv = tmp_path / "venv"
        subprocess.run(
            [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
            check=True,
            timeout=120,
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        subprocess.run(
            [
                str(venv / "bin" / "python"),
                "-m",
                "pip",
                "install",
                "--quiet",
                "--no-deps",
                "--no-build-isolation",
                "--no-index",
                str(project),
            ],
            check=True,
            timeout=300,
            cwd=tmp_path,
            env=env,
        )
        proc = subprocess.run(
            [str(venv / "bin" / "sparsescan"), "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=env,
        )
        _assert_help_lists_subcommands(proc)
