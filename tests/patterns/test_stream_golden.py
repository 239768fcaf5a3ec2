"""Golden digests of the random test streams and their feature rows.

The other reference tests compare a fast builder or kernel with a slower
in-test form of the same rule, so a change that moved both together would
still pass them.  These digests pin the output itself.  Per stimulus style
(and for the style-mixing stream), each digest covers every test's columns,
geometry and name, its one-row feature extraction, and the Generator's end
state, cached 32-bit half included.  The streams run over three seeds, every
bus width from 1 to 16 bits, buses wider than 32 bits, and both cached-half
starts.

``peak_window_activity`` is a dot product computed by the BLAS ``ddot`` that
numpy links, whose summation order may vary with the CPU.  The digest takes
it to 10 significant digits.  ``test_features_batch.py`` pins it bit for bit
against the per-sequence kernel on the machine that runs the tests.
"""

import hashlib

import numpy as np
import pytest

from repro.patterns.features import (
    FEATURE_NAMES,
    extract_features,
    extract_features_batch,
)
from repro.patterns.random_gen import STYLES, RandomTestGenerator

SEEDS = (0, 1, 2)
#: Every width from 1 to 16 on both buses, then an address bus wider than
#: 32 bits with a full 32-bit data bus, and both buses wider than 32 bits.
GEOMETRIES = tuple((bits, 17 - bits) for bits in range(1, 17)) + ((40, 32), (36, 40))
TESTS_PER_STREAM = 4

_PEAK = FEATURE_NAMES.index("peak_window_activity")

#: sha256 of each stream, computed before the builders and the kernel were
#: last reworked.
GOLDEN = {
    "uniform": "c72e51bd3183a870145702ec48b204a92b7d2ae306502c894dd72b67938afc50",
    "burst": "a685165d4b26e059193015610f2cd1c55fb9dd360034aa694372dba02cca1cec",
    "sweep": "60bcc71ba61bad873e757acf8a71e860e8ababd0b4b80139011b2ee967a56eae",
    "hammer": "4cee9de2a6de607e615287b2b0f8a25f0c5c146c4725ea7d707d03367bbfc88f",
    "toggle": "5a073ae72400414a3dad50babff80efbe64df8b56202563c0c07146db00de289",
    "mix": "34d676cb43fea19480b4d8e5c71a3e966da5956cddf9f3912de1a9373f20d1de",
}


def _row_bytes(row: np.ndarray) -> bytes:
    exact = np.array(row, dtype=np.float64)
    peak = f"{exact[_PEAK]:.9e}"
    exact[_PEAK] = 0.0
    return exact.tobytes() + peak.encode("ascii")


def stream_digest(style: str) -> str:
    """sha256 of the ``style`` streams (``"mix"``: the style-mixing draw)."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        for addr_bits, data_bits in GEOMETRIES:
            # hammer's block decode, and so the style mix that draws it,
            # takes data buses of up to 32 bits.
            if data_bits > 32 and style in ("hammer", "mix"):
                continue
            for cached in (False, True):
                generator = RandomTestGenerator(
                    seed=seed, addr_bits=addr_bits, data_bits=data_bits,
                    min_cycles=1, max_cycles=600,
                )
                if cached:
                    # One odd 32-bit draw leaves the high half of a word cached.
                    generator._rng.integers(0, 8)
                tests = [
                    generator.generate(None if style == "mix" else style)
                    for _ in range(TESTS_PER_STREAM)
                ]
                rows = [extract_features(test.sequence).values for test in tests]
                batch = extract_features_batch(
                    [test.sequence.with_name("") for test in tests]
                )
                assert np.array_equal(np.array(rows), batch)
                for test, row in zip(tests, rows):
                    sequence = test.sequence
                    digest.update(
                        f"{test.name}:{sequence.addr_bits}:{sequence.data_bits}"
                        .encode("ascii")
                    )
                    for column in sequence.columns:
                        digest.update(column.dtype.str.encode("ascii"))
                        digest.update(column.tobytes())
                    digest.update(_row_bytes(row))
                state = generator._rng.bit_generator.state
                digest.update(
                    "{}:{}:{}:{}".format(
                        state["state"]["state"], state["state"]["inc"],
                        state["has_uint32"], state["uinteger"],
                    ).encode("ascii")
                )
    return digest.hexdigest()


@pytest.mark.parametrize("style", [name for name, _ in STYLES] + ["mix"])
def test_stream_matches_golden_digest(style):
    assert stream_digest(style) == GOLDEN[style]
