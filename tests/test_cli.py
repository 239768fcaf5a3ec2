"""Tests for the command-line interface."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestArgumentParsing:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_march_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["march", "--algorithm", "march_zz"])


class TestCommands:
    def test_march(self, capsys):
        assert main(["--seed", "1", "march"]) == 0
        out = capsys.readouterr().out
        assert "march_c-" in out
        assert "trip point" in out
        assert "WCR" in out

    def test_march_alternate_algorithm(self, capsys):
        assert main(["march", "--algorithm", "mats+"]) == 0
        assert "mats+" in capsys.readouterr().out

    def test_random(self, capsys):
        assert main(["--seed", "2", "random", "--tests", "25"]) == 0
        out = capsys.readouterr().out
        assert "worst case" in out
        assert "measurements spent" in out

    def test_shmoo(self, capsys):
        assert main(["--seed", "3", "shmoo", "--tests", "6"]) == 0
        out = capsys.readouterr().out
        assert "VDD" in out
        assert "spread at Vdd 1.8" in out

    def test_sweep(self, capsys):
        assert main(["--seed", "4", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "Vdd" in out
        assert "worst cell" in out

    def test_lot(self, capsys):
        assert main(["--seed", "5", "lot", "--dies", "3", "--tests", "4"]) == 0
        out = capsys.readouterr().out
        assert "lot of 3 dies" in out

    def test_wafer(self, capsys):
        assert main(["--seed", "7", "wafer", "--grid", "5", "--tests", "3"]) == 0
        out = capsys.readouterr().out
        assert "wafer map" in out
        assert "worst die" in out

    def test_table1_fast(self, capsys):
        assert main(
            ["--seed", "6", "table1", "--random-tests", "60", "--fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "March Test" in out
        assert "NNGA Test" in out

    def test_campaign_saves_directory(self, capsys, tmp_path):
        out = tmp_path / "campaign"
        assert main(
            ["--seed", "9", "campaign", "--random-tests", "60",
             "--out", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "# Characterization campaign report" in captured
        assert (out / "report.md").exists()
        assert list((out / "patterns").glob("*.pat"))

    def test_hunt_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        # Shrink the default configs through the characterizer by patching
        # the scheme defaults — the CLI's hunt uses library defaults which
        # are sized for minutes; here we only check wiring.
        from repro.core import characterizer as characterizer_module
        from repro.core.learning import LearningConfig
        from repro.core.optimization import OptimizationConfig
        from repro.ga.engine import GAConfig

        original = characterizer_module.DeviceCharacterizer.characterize_intelligent

        def small(self, learning_config=None, optimization_config=None):
            return original(
                self,
                LearningConfig(
                    tests_per_round=60, max_rounds=1, max_epochs=30,
                    n_networks=2, seed=0,
                ),
                OptimizationConfig(
                    ga=GAConfig(
                        population_size=8, n_populations=1, max_generations=4
                    ),
                    n_seeds=6, seed_pool_size=40, seed=0,
                ),
            )

        monkeypatch.setattr(
            characterizer_module.DeviceCharacterizer,
            "characterize_intelligent",
            small,
        )
        weights = tmp_path / "w.json"
        database = tmp_path / "db.json"
        assert main(
            ["hunt", "--weights", str(weights), "--database", str(database)]
        ) == 0
        out = capsys.readouterr().out
        assert "worst case test" in out
        assert weights.exists()
        assert database.exists()


class TestFarmFlags:
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep"],
            ["screen", "--tests", "6"],
            ["campaign", "--random-tests", "40"],
        ],
    )
    def test_output_does_not_depend_on_workers_flag(self, command, capsys):
        assert main(command) == 0
        plain = capsys.readouterr().out
        assert main(["--workers", "1"] + command) == 0
        assert capsys.readouterr().out == plain

    def test_a_given_farm_flag_on_a_non_farm_command_is_noted(self, capsys):
        # An empty --resume path is still a given flag.
        assert main(["--resume", "", "march"]) == 0
        assert capsys.readouterr().err.startswith(
            "note: --workers/--resume/--broker are ignored by 'march'"
        )

    def test_broker_alone_selects_remote_backend(self, monkeypatch):
        from repro.core.lot import LotCharacterizer
        from repro.farm.remote.executor import RemoteExecutor

        class Reached(Exception):
            pass

        def run(self, tests, n_dies, executor=None):
            raise Reached(executor)

        monkeypatch.setattr(LotCharacterizer, "run", run)
        with pytest.raises(Reached) as reached:
            main(["--workers", "2", "--broker", "127.0.0.1:9",
                  "lot", "--dies", "2", "--tests", "2"])
        executor = reached.value.args[0]
        assert isinstance(executor, RemoteExecutor)
        assert executor.address == ("127.0.0.1", 9)

    def test_unreachable_broker_is_a_one_line_error(self):
        # A port that was just free: nothing listens there.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--broker", f"127.0.0.1:{port}",
             "lot", "--dies", "2", "--tests", "2"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert done.stderr.startswith(
            f"error: cannot reach farm broker at 127.0.0.1:{port}"
        )
        assert "Traceback" not in done.stderr + done.stdout

    @pytest.mark.parametrize("workers, command", [
        pytest.param("0", ["lot", "--dies", "2", "--tests", "2"], id="0"),
        pytest.param("-3", ["lot", "--dies", "2", "--tests", "2"], id="-3"),
        # A command the farm flags do not reach still rejects the value.
        pytest.param("0", ["march"], id="0-march"),
    ])
    def test_non_positive_workers_is_a_one_line_error(self, workers, command):
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--workers", workers,
             *command],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 2
        assert done.stderr == f"error: workers must be >= 1, got {workers}\n"
        assert "Traceback" not in done.stderr + done.stdout
        assert done.stdout == ""


class TestJobsSubmitParams:
    def _submit(self, raw):
        return main(["jobs", "submit", "--url", "http://127.0.0.1:9",
                     "table1", "-p", f"fast={raw}"])

    @pytest.mark.parametrize("raw", ["ture", "2", "on", ""])
    def test_mistyped_bool_is_rejected(self, raw, capsys):
        assert self._submit(raw) == 2
        assert capsys.readouterr().err == (
            f"error: parameter 'fast' must be bool, got {raw!r}\n"
        )

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("YES", True), ("1", True),
        ("False", False), ("no", False), ("0", False),
    ])
    def test_bool_words(self, raw, value, monkeypatch):
        from repro.service.client import ServiceClient

        class Submitted(Exception):
            pass

        def submit(self, spec):
            raise Submitted(spec)

        monkeypatch.setattr(ServiceClient, "submit", submit)
        with pytest.raises(Submitted) as submitted:
            self._submit(raw)
        assert submitted.value.args[0].params == {"fast": value}
