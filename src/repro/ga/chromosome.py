"""The GA individual: two chromosome species in one genome.

A :class:`TestIndividual` carries

* a **test-sequence chromosome** — the vector sequence itself (direct
  representation; crossover splices, mutation rewrites cycles or inserts
  stimulus motifs), and
* a **test-condition chromosome** — three genes in ``[0, 1]`` that decode
  to a :class:`~repro.patterns.conditions.TestCondition` through the
  condition space.

Fitness is attached after ATE evaluation; individuals are immutable
(operators construct new ones), so sharing between populations is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.patterns.conditions import ConditionSpace
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import VectorSequence

#: Number of condition genes (vdd, temperature, clock period).
CONDITION_GENES = 3

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class TestIndividual:
    """One genome: sequence chromosome + condition chromosome (+ fitness)."""

    sequence: VectorSequence
    condition_genes: np.ndarray
    fitness: Optional[float] = None
    origin: str = "ga"

    def __post_init__(self) -> None:
        genes = self.condition_genes
        # Genes that cannot change are adopted: a read-only float64 array
        # that owns its data.  Anything else is stored as a read-only copy;
        # the caller's array stays writable.
        if not (
            type(genes) is np.ndarray
            and genes.dtype == _FLOAT64
            and not genes.flags.writeable
            and genes.base is None
        ):
            genes = np.array(genes, dtype=float)
            genes.flags.writeable = False
        if genes.shape != (CONDITION_GENES,):
            raise ValueError(
                f"expected {CONDITION_GENES} condition genes, got {genes.shape}"
            )
        # Compared as Python floats: a NaN gene passes both bounds.
        if any(gene < 0.0 or gene > 1.0 for gene in genes.tolist()):
            raise ValueError("condition genes must lie in [0, 1]")
        object.__setattr__(self, "condition_genes", genes)

    def __setstate__(self, state: dict) -> None:
        # An unpickled or deep-copied array is writable again.
        self.__dict__.update(state)
        self.condition_genes.flags.writeable = False

    @property
    def evaluated(self) -> bool:
        """True once a fitness has been attached."""
        return self.fitness is not None

    def with_fitness(self, fitness: float) -> "TestIndividual":
        """Copy with fitness attached."""
        # The genome was checked when this individual was made, and its
        # genes cannot change since: copy the fields without a second check.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, fitness=float(fitness))
        return twin

    def to_test_case(
        self,
        condition_space: ConditionSpace,
        name: str = "",
    ) -> TestCase:
        """Decode the genome into an executable test case."""
        condition = condition_space.denormalize(self.condition_genes)
        return TestCase(
            sequence=self.sequence,
            condition=condition,
            name=name or self.sequence.name,
            origin=self.origin,
        )

    @classmethod
    def from_test_case(
        cls,
        test: TestCase,
        condition_space: ConditionSpace,
        origin: str = "ga",
    ) -> "TestIndividual":
        """Encode an existing test case (e.g. an NN-selected seed)."""
        genes = condition_space.normalize(test.condition)
        return cls(
            sequence=test.sequence,
            condition_genes=np.clip(genes, 0.0, 1.0),
            origin=origin,
        )

    def __str__(self) -> str:
        fit = f"{self.fitness:.4f}" if self.fitness is not None else "?"
        return (
            f"Individual({self.sequence.name or 'seq'}, "
            f"{len(self.sequence)}cyc, fitness={fit})"
        )
