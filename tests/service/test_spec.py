"""Job spec validation and its CLI-argv parity contract."""

from pathlib import Path

import pytest

from repro.service.spec import (
    FARM_JOB_COMMANDS,
    JOB_COMMANDS,
    JobSpec,
    SpecError,
)


class TestValidation:
    def test_round_trip(self):
        spec = JobSpec.from_payload(
            {"command": "lot", "params": {"dies": 3, "tests": 4}, "seed": 7,
             "workers": 2}
        )
        assert spec.command == "lot"
        assert spec.params == {"dies": 3, "tests": 4}
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_defaults(self):
        spec = JobSpec.from_payload({"command": "hunt"})
        assert spec.seed == 0
        assert spec.workers is None
        assert spec.params == {}

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "JSON object"),
            ({"command": "rm -rf"}, "unknown command"),
            ({"command": "lot", "params": {"evil": 1}}, "unknown parameter"),
            ({"command": "lot", "params": {"dies": "3"}}, "must be of type"),
            ({"command": "lot", "params": "dies=3"}, "params must be"),
            ({"command": "lot", "seed": "0"}, "seed must be"),
            ({"command": "lot", "workers": 0}, "workers must be"),
            ({"command": "lot", "extra": 1}, "unknown spec field"),
            # workers on a non-farm command is a spec error, like the
            # CLI's own "--workers is ignored" note but strict
            ({"command": "march", "workers": 2}, "does not honour workers"),
            # the screen has one engine: its work units
            ({"command": "screen", "params": {"engine": "scalar"}},
             "unknown parameter"),
        ],
    )
    def test_rejections(self, payload, match):
        with pytest.raises(SpecError, match=match):
            JobSpec.from_payload(payload)

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="must be of type"):
            JobSpec.from_payload({"command": "lot", "params": {"dies": True}})

    def test_float_accepts_int(self):
        spec = JobSpec.from_payload(
            {"command": "screen", "params": {"step": 1}}
        )
        assert spec.params["step"] == 1.0

    def test_every_command_is_known_to_the_cli(self):
        # The whitelist mirrors the CLI's campaign subcommands.
        from repro.cli import _COMMANDS

        for command in JOB_COMMANDS:
            assert command in _COMMANDS
        for command in FARM_JOB_COMMANDS:
            assert command in JOB_COMMANDS


class TestArgv:
    def test_lot_argv(self, tmp_path):
        spec = JobSpec(command="lot", params={"dies": 3, "tests": 4}, seed=7)
        argv = spec.cli_argv(tmp_path)
        assert argv == [
            "--seed", "7",
            "--trace", str(tmp_path / "trace.jsonl"),
            "lot", "--dies", "3", "--tests", "4",
            "--database", str(tmp_path / "wcdb.json"),
        ]
        assert spec.wcdb_path(tmp_path) == tmp_path / "wcdb.json"
        assert spec.exports_wcdb()

    def test_workers_and_underscore_params(self, tmp_path):
        spec = JobSpec(
            command="campaign", params={"random_tests": 60}, workers=2
        )
        argv = spec.cli_argv(tmp_path)
        assert "--workers" in argv and "2" in argv
        assert "--random-tests" in argv
        # campaign exports into its --out directory
        assert spec.wcdb_path(tmp_path) == (
            tmp_path / "campaign" / "worst_case_db.json"
        )

    @pytest.mark.parametrize("backend, workers, flags", [
        (None, 3, ["--workers", "3"]),
        ("serial", 3, []),
        ("process", None, ["--workers", "2"]),
        ("process", 1, ["--workers", "1"]),
        ("remote", 3, ["--broker", "h:1", "--workers", "3"]),
    ])
    def test_backend_maps_onto_farm_flags(
        self, tmp_path, backend, workers, flags
    ):
        spec = JobSpec(command="lot", workers=workers, backend=backend)
        argv = spec.cli_argv(tmp_path, broker="h:1")
        assert argv[4:argv.index("lot")] == flags

    def test_bool_param_is_a_bare_flag(self, tmp_path):
        spec = JobSpec(command="table1", params={"fast": True})
        argv = spec.cli_argv(tmp_path)
        assert "--fast" in argv
        off = JobSpec(command="table1", params={"fast": False})
        assert "--fast" not in off.cli_argv(tmp_path)

    def test_non_exporting_command_has_no_wcdb(self, tmp_path):
        spec = JobSpec(command="random", params={"tests": 10})
        assert spec.wcdb_path(tmp_path) is None
        assert not spec.exports_wcdb()

    def test_full_argv_targets_this_interpreter(self, tmp_path):
        import sys

        argv = JobSpec(command="hunt").full_argv(tmp_path)
        assert argv[0] == sys.executable
        assert argv[1:3] == ["-m", "repro.cli"]

    def test_nothing_client_supplied_becomes_a_flag(self, tmp_path):
        # Values are always argv *operands*; a hostile string value can
        # never be spliced in as a flag of its own.
        spec = JobSpec.from_payload(
            {"command": "march", "params": {"algorithm": "--evil"}}
        )
        argv = spec.cli_argv(Path(tmp_path))
        assert argv[argv.index("--algorithm") + 1] == "--evil"
