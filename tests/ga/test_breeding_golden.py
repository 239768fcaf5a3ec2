"""Golden digests of seeded GA runs, and the individual's gene checks.

``test_operators_blocks.py`` compares each block-drawn operator with its
scalar loop one call at a time.  These digests pin a whole breeding run:
selection, crossover, point, motif and resize mutation, condition mutation,
restarts and migration, in the order the engine interleaves them on one
Generator.  Each digest covers every raw-evaluated child (its columns,
geometry, name and decoded condition), the fitness history, the operator
chain of every generation's members and the Generator's end state, cached
32-bit half included.  The runs cover three seeds, the default bus and a
bus of other widths, each from an empty and from a cached-half start.

The fitness is a fixed function of the test's features and condition, so
no ATE runs.  It leaves out ``peak_window_activity``, a BLAS dot product
whose summation order may vary with the CPU.
"""

import copy
import hashlib
import math
import pickle
import re

import numpy as np
import pytest

from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, MultiPopulationGA
from repro.patterns.conditions import ConditionSpace
from repro.patterns.features import FEATURE_NAMES, extract_features
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import DEFAULT_ADDR_BITS, DEFAULT_DATA_BITS

SEEDS = (0, 1, 2)
GEOMETRIES = {
    "default": (DEFAULT_ADDR_BITS, DEFAULT_DATA_BITS),
    "odd": (11, 13),
}
#: Small populations that stagnate, restart and migrate within the run.
CONFIG = GAConfig(
    population_size=6,
    n_populations=2,
    max_generations=8,
    elite_count=1,
    migration_interval=3,
    migration_count=1,
    stagnation_patience=3,
)
SPACE = ConditionSpace()

_PEAK = FEATURE_NAMES.index("peak_window_activity")

#: sha256 of each geometry's runs, computed before the variation path was
#: last reworked.
GOLDEN = {
    "default": "ae51f3a49bb6e8462b96718a33b7d30e516d16ea2bc7b0b7d17b1f3757b00eea",
    "odd": "3ed0206d79739181e40cab531c6e119655e08865b7eeca59ec29d28468ccb7a4",
}


class _LoggedGA(MultiPopulationGA):
    """The engine, recording the operator chain of each new generation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chains = []

    def _offspring(self, population):
        next_gen = super()._offspring(population)
        self.chains.append(
            [self._operator_log[id(individual)] for individual in next_gen]
        )
        return next_gen


def _run_digest(digest, seed, addr_bits, data_bits, cached):
    def fitness(test):
        sequence = test.sequence
        digest.update(
            f"{test.name}:{sequence.addr_bits}:{sequence.data_bits}:"
            f"{test.condition.vdd!r}:{test.condition.temperature!r}:"
            f"{test.condition.clock_period!r}".encode("ascii")
        )
        for column in sequence.columns:
            digest.update(column.dtype.str.encode("ascii"))
            digest.update(column.tobytes())
        values = extract_features(sequence).values.tolist()
        del values[_PEAK]
        score = sum((i + 1) * value for i, value in enumerate(values))
        return score / len(values) + 0.1 * test.condition.vdd

    generator = RandomTestGenerator(
        seed=seed, condition_space=SPACE, addr_bits=addr_bits,
        data_bits=data_bits, min_cycles=100, max_cycles=400,
    )
    seeds = [
        TestIndividual.from_test_case(test, SPACE, origin="seed")
        for test in generator.batch(4)
    ]
    ga = _LoggedGA(CONFIG, SPACE, fitness, seed=seed)
    if cached:
        # One odd 32-bit draw leaves the high half of a word cached.
        ga._rng.integers(0, 8)
    result = ga.run(seeds)
    digest.update(repr(result.fitness_history).encode("ascii"))
    digest.update(
        f"{result.generations_run}:{result.evaluations}:{result.restarts}:"
        f"{result.best.fitness!r}".encode("ascii")
    )
    digest.update(repr(ga.chains).encode("ascii"))
    state = ga._rng.bit_generator.state
    digest.update(
        "{}:{}:{}:{}".format(
            state["state"]["state"], state["state"]["inc"],
            state["has_uint32"], state["uinteger"],
        ).encode("ascii")
    )


def breeding_digest(geometry: str) -> str:
    """sha256 of the seeded GA runs on the ``geometry`` bus."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        for cached in (False, True):
            _run_digest(digest, seed, *GEOMETRIES[geometry], cached)
    return digest.hexdigest()


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_breeding_matches_golden_digest(geometry):
    assert breeding_digest(geometry) == GOLDEN[geometry]


# -- the individual's gene checks ---------------------------------------------------
_SHAPE = "expected 3 condition genes, got {}"
_RANGE = "condition genes must lie in [0, 1]"

INVALID_GENES = [
    ([0.5, 0.5], _SHAPE.format((2,))),
    ([[0.5, 0.5, 0.5]], _SHAPE.format((1, 3))),
    (0.5, _SHAPE.format(())),
    (np.zeros(4), _SHAPE.format((4,))),
    ([-0.1, 0.5, 0.5], _RANGE),
    ((0.5, 1.5, 0.5), _RANGE),
    (np.array([0.5, 0.5, -np.inf]), _RANGE),
    ([math.nan, 2.0, 0.5], _RANGE),
    (["a", "b", "c"], "could not convert string to float"),
]

#: Accepted as they were: NaN passes both bound tests.
VALID_GENES = [
    [0.0, 1.0, 0.5],
    (0, 1, 1),
    np.array([0.25, 0.5, 0.75], dtype=np.float32),
    np.array([0.25, 0.5, 0.75]),
    [math.nan, 0.5, 0.5],
]


def _sequence():
    return RandomTestGenerator(seed=0).generate("uniform").sequence


@pytest.mark.parametrize("genes, message", INVALID_GENES)
def test_invalid_genes_raise_their_message(genes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TestIndividual(_sequence(), genes)


@pytest.mark.parametrize("genes", VALID_GENES)
def test_valid_genes_are_stored_read_only(genes):
    individual = TestIndividual(_sequence(), genes)
    stored = individual.condition_genes
    assert stored.dtype == np.float64 and stored.shape == (3,)
    np.testing.assert_array_equal(stored, np.asarray(genes, dtype=float))
    assert not stored.flags.writeable
    if isinstance(genes, np.ndarray):
        # The caller's array is copied, never frozen.
        assert genes.flags.writeable
        assert not np.shares_memory(stored, genes)


def test_read_only_genes_are_adopted():
    genes = np.array([0.1, 0.2, 0.3])
    genes.flags.writeable = False
    assert TestIndividual(_sequence(), genes).condition_genes is genes


def test_with_fitness_keeps_the_genome():
    individual = TestIndividual(_sequence(), [0.1, 0.2, 0.3], origin="seed")
    scored = individual.with_fitness(np.float32(0.5))
    assert type(scored.fitness) is float and scored.fitness == 0.5
    assert scored.condition_genes is individual.condition_genes
    assert scored.sequence is individual.sequence
    assert scored.origin == "seed"
    assert individual.fitness is None
    assert scored.with_fitness(0.75).fitness == 0.75


def test_copied_genes_stay_read_only():
    individual = TestIndividual(_sequence(), [0.1, 0.2, 0.3]).with_fitness(0.5)
    for twin in (pickle.loads(pickle.dumps(individual)), copy.deepcopy(individual)):
        assert not twin.condition_genes.flags.writeable
        np.testing.assert_array_equal(twin.condition_genes, [0.1, 0.2, 0.3])
        assert twin.fitness == 0.5 and twin.sequence == individual.sequence
