"""Campaign job specs: what a service client is allowed to submit.

A job spec names one of the CLI's campaign commands plus a whitelisted
parameter set; the service turns it into the *exact* argv the direct
CLI would run.  That equivalence is the service's parity contract: a
campaign submitted over HTTP produces the same measurements — and the
same worst-case database bytes — as the same command typed at a shell,
because it *is* the same command (run in a worker subprocess with a
per-job telemetry trace).

The whitelist is the security boundary: only known commands, only known
parameters, only scalar values.  Nothing a client sends is ever
interpreted as a flag name or shell text.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Parameter whitelists per submittable command, mirroring the CLI
#: subcommands (parameter ``random_tests`` becomes ``--random-tests``).
JOB_COMMANDS: Dict[str, Dict[str, type]] = {
    "march": {"algorithm": str, "background": str},
    "random": {"tests": int},
    "table1": {"random_tests": int, "fast": bool},
    "hunt": {},
    "shmoo": {"tests": int},
    "screen": {"tests": int, "step": float},
    "sweep": {},
    "lot": {"dies": int, "tests": int},
    "wafer": {"grid": int, "tests": int},
    "campaign": {"random_tests": int},
}

#: Commands that can export a worst-case database, and how: the flag to
#: pass and the filename it lands under (relative to the flag target).
_WCDB_EXPORTS: Dict[str, Tuple[str, str]] = {
    "hunt": ("--database", ""),       # flag takes the file path itself
    "lot": ("--database", ""),
    "campaign": ("--out", "worst_case_db.json"),  # directory export
}

#: Commands that run as farm work units and honour the farm flags; the
#: CLI reads this tuple too.
FARM_JOB_COMMANDS = ("lot", "wafer", "sweep", "campaign", "screen")


#: Executor backends a job may request (``remote`` additionally needs
#: the service to be started with a broker address).
JOB_BACKENDS = ("serial", "process", "remote")


class SpecError(ValueError):
    """A submitted spec failed validation (HTTP 400 territory)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated campaign submission."""

    command: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    workers: Optional[int] = None
    backend: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Validate a client JSON payload into a spec.

        Raises
        ------
        SpecError
            Unknown command, unknown or mistyped parameter, or a
            malformed payload — with a message fit for an HTTP 400.
        """
        if not isinstance(payload, dict):
            raise SpecError("spec must be a JSON object")
        unknown_keys = set(payload) - {
            "command", "params", "seed", "workers", "backend"
        }
        if unknown_keys:
            raise SpecError(f"unknown spec field(s): {sorted(unknown_keys)}")
        command = payload.get("command")
        if command not in JOB_COMMANDS:
            raise SpecError(
                f"unknown command {command!r}; submittable commands: "
                f"{', '.join(sorted(JOB_COMMANDS))}"
            )
        allowed = JOB_COMMANDS[command]
        raw_params = payload.get("params") or {}
        if not isinstance(raw_params, dict):
            raise SpecError("params must be a JSON object")
        params: Dict[str, object] = {}
        for name, value in raw_params.items():
            if name not in allowed:
                raise SpecError(
                    f"unknown parameter {name!r} for {command!r}; allowed: "
                    f"{', '.join(sorted(allowed)) or '(none)'}"
                )
            params[name] = _coerce(name, value, allowed[name])
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SpecError("seed must be an integer")
        workers = payload.get("workers")
        if workers is not None and (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise SpecError("workers must be a positive integer")
        if workers is not None and command not in FARM_JOB_COMMANDS:
            raise SpecError(
                f"{command!r} does not honour workers; farm commands: "
                f"{', '.join(FARM_JOB_COMMANDS)}"
            )
        backend = payload.get("backend")
        if backend is not None:
            if backend not in JOB_BACKENDS:
                raise SpecError(
                    f"unknown backend {backend!r}; allowed: "
                    f"{', '.join(JOB_BACKENDS)}"
                )
            if command not in FARM_JOB_COMMANDS:
                raise SpecError(
                    f"{command!r} does not honour a backend; farm "
                    f"commands: {', '.join(FARM_JOB_COMMANDS)}"
                )
        return cls(
            command=command, params=params, seed=seed,
            workers=workers, backend=backend,
        )

    def to_payload(self) -> Dict[str, object]:
        """The JSON shape :meth:`from_payload` accepts (round-trips)."""
        payload: Dict[str, object] = {
            "command": self.command,
            "params": dict(self.params),
            "seed": self.seed,
        }
        if self.workers is not None:
            payload["workers"] = self.workers
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    def exports_wcdb(self) -> bool:
        """Whether this command can produce a worst-case database."""
        return self.command in _WCDB_EXPORTS

    def cli_argv(
        self, job_dir: Path, broker: Optional[str] = None
    ) -> List[str]:
        """The ``repro.cli`` argv this job runs (without the python part).

        Artifacts land inside ``job_dir``: the telemetry trace at
        ``trace.jsonl`` and, for exporting commands, the worst-case
        database at ``wcdb.json`` (directly, or inside the campaign
        output directory — see :func:`wcdb_path`).  ``backend`` maps onto
        the farm flags: ``remote`` to ``--broker`` with ``broker``, the
        service-configured farm broker address; ``process`` to
        ``--workers`` (``workers``, or 2); ``serial`` to no ``--workers``.
        """
        argv: List[str] = [
            "--seed", str(self.seed),
            "--trace", str(job_dir / TRACE_FILENAME),
        ]
        workers = self.workers
        if self.backend == "process":
            workers = workers or 2
        elif self.backend == "serial":
            workers = None
        elif self.backend == "remote" and broker:
            argv += ["--broker", broker]
        if workers is not None:
            argv += ["--workers", str(workers)]
        argv.append(self.command)
        for name in sorted(self.params):
            value = self.params[name]
            flag = "--" + name.replace("_", "-")
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            else:
                argv += [flag, str(value)]
        if self.command in _WCDB_EXPORTS:
            flag, _ = _WCDB_EXPORTS[self.command]
            if flag == "--out":
                argv += [flag, str(job_dir / CAMPAIGN_DIRNAME)]
            else:
                argv += [flag, str(job_dir / WCDB_FILENAME)]
        return argv

    def full_argv(
        self, job_dir: Path, broker: Optional[str] = None
    ) -> List[str]:
        """The complete subprocess argv (current interpreter + CLI)."""
        return [sys.executable, "-m", "repro.cli"] + self.cli_argv(
            job_dir, broker=broker
        )

    def wcdb_path(self, job_dir: Path) -> Optional[Path]:
        """Where this job's worst-case export lands (``None`` if never)."""
        if self.command not in _WCDB_EXPORTS:
            return None
        flag, filename = _WCDB_EXPORTS[self.command]
        if flag == "--out":
            return job_dir / CAMPAIGN_DIRNAME / filename
        return job_dir / WCDB_FILENAME


def _coerce(name: str, value: object, kind: type) -> object:
    """Type-check one whitelisted parameter value (no string parsing)."""
    if kind is bool:
        if isinstance(value, bool):
            return value
    elif kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind is str:
        if isinstance(value, str):
            return value
    raise SpecError(
        f"parameter {name!r} must be of type {kind.__name__}, "
        f"got {type(value).__name__}"
    )


#: Artifact names inside a job directory.
TRACE_FILENAME = "trace.jsonl"
WCDB_FILENAME = "wcdb.json"
CAMPAIGN_DIRNAME = "campaign"
LOG_FILENAME = "job.log"
REPORT_FILENAME = "report.html"
