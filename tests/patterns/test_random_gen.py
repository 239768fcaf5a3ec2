"""Tests for the random test generator."""

import numpy as np
import pytest

from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION
from repro.patterns.features import extract_features
from repro.patterns.random_gen import STYLES, RandomTestGenerator
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    OPS,
    Operation,
    TestVector,
)


class TestConstruction:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RandomTestGenerator(min_cycles=10, max_cycles=5)

    def test_rejects_zero_min(self):
        with pytest.raises(ValueError):
            RandomTestGenerator(min_cycles=0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomTestGenerator(seed=42).batch(5)
        b = RandomTestGenerator(seed=42).batch(5)
        for x, y in zip(a, b):
            assert x.sequence == y.sequence
            assert x.condition == y.condition

    def test_different_seeds_differ(self):
        a = RandomTestGenerator(seed=1).generate()
        b = RandomTestGenerator(seed=2).generate()
        assert a.sequence != b.sequence

    def test_names_are_unique_and_sequential(self):
        generator = RandomTestGenerator(seed=0)
        names = [generator.generate().name for _ in range(10)]
        assert len(set(names)) == 10
        assert names[0].startswith("rnd_00000")


class TestOutputContract:
    def test_lengths_respect_paper_bounds(self):
        generator = RandomTestGenerator(seed=7)
        for test in generator.batch(30):
            assert MIN_SEQUENCE_CYCLES <= test.cycles <= MAX_SEQUENCE_CYCLES

    def test_nominal_condition_without_space(self):
        generator = RandomTestGenerator(seed=7, condition_space=None)
        assert all(t.condition == NOMINAL_CONDITION for t in generator.batch(5))

    def test_conditions_sampled_inside_space(self):
        space = ConditionSpace()
        generator = RandomTestGenerator(seed=7, condition_space=space)
        assert all(space.contains(t.condition) for t in generator.batch(20))

    def test_origin_tag(self):
        assert RandomTestGenerator(seed=0).generate().origin == "random"

    def test_unknown_style_raises(self):
        with pytest.raises(ValueError, match="style"):
            RandomTestGenerator(seed=0).generate(style="bogus")

    def test_stream_is_endless_prefix_of_batch(self):
        gen_a = RandomTestGenerator(seed=5)
        stream = gen_a.stream()
        from_stream = [next(stream) for _ in range(3)]
        from_batch = RandomTestGenerator(seed=5).batch(3)
        for x, y in zip(from_stream, from_batch):
            assert x.sequence == y.sequence


class TestStyleProfiles:
    """Each style must actually produce its distinguishing activity."""

    def _features(self, style, seed=3):
        generator = RandomTestGenerator(seed=seed)
        return extract_features(generator.generate(style=style).sequence)

    def test_all_declared_styles_build(self):
        generator = RandomTestGenerator(seed=1)
        for name, _ in STYLES:
            test = generator.generate(style=name)
            assert test.cycles >= MIN_SEQUENCE_CYCLES

    def test_burst_has_read_after_write(self):
        assert self._features("burst")["read_after_write_rate"] > 0.3

    def test_toggle_has_full_data_toggle(self):
        assert self._features("toggle")["data_toggle_density"] > 0.9

    def test_toggle_has_high_msb_rate(self):
        assert self._features("toggle")["addr_msb_toggle_rate"] > 0.5

    def test_sweep_has_low_jump_distance(self):
        assert self._features("sweep")["addr_jump_distance"] < 0.1

    def test_hammer_has_tiny_coverage(self):
        assert self._features("hammer")["addr_coverage"] < 0.01

    def test_uniform_has_moderate_everything(self):
        features = self._features("uniform")
        assert 0.3 < features["addr_transition_density"] < 0.7
        assert features["read_after_write_rate"] < 0.05

    def test_no_single_style_triggers_full_weakness(self):
        """The hidden weakness conjunction must be out of reach of every
        individual style — otherwise random search would find the worst
        case and the paper's premise would not hold."""
        from repro.device.sensitivity import SensitivityModel

        model = SensitivityModel()
        for name, _ in STYLES:
            for seed in range(5):
                features = self._features(name, seed=seed)
                acts = model.weakness_activations(features)
                assert np.prod(acts) < 0.5, (
                    f"style {name} (seed {seed}) fully activates the weakness"
                )


def _columns(vectors):
    """The ``(op codes, addresses, data)`` columns of a vector list."""
    return (
        [OPS.index(vector.op) for vector in vectors],
        [vector.address for vector in vectors],
        [vector.data for vector in vectors],
    )


class ScalarReferenceGenerator(RandomTestGenerator):
    """The builders as per-cycle scalar loops over :class:`TestVector`.

    This is how the builders were written before they drew whole arrays
    and returned columns; each loop's vector list is converted to columns
    on return.  The generator must emit the same tests and leave its RNG
    stream at the same point, so every later test of a stream stays
    aligned.
    """

    def _build_uniform(self, rng, cycles):
        ops = rng.choice([Operation.READ, Operation.WRITE, Operation.NOP],
                         size=cycles, p=[0.45, 0.45, 0.10])
        return _columns([
            TestVector(op, self._rand_addr(rng), self._rand_data(rng))
            for op in ops
        ])

    def _build_burst(self, rng, cycles):
        vectors = []
        while len(vectors) < cycles:
            base = self._rand_addr(rng)
            burst = int(rng.integers(2, 9))
            word = self._rand_data(rng)
            for offset in range(burst):
                addr = (base + offset) % (1 << self.addr_bits)
                vectors.append(TestVector(Operation.WRITE, addr, word ^ offset))
                vectors.append(TestVector(Operation.READ, addr, 0))
        return _columns(vectors[:cycles])

    def _build_hammer(self, rng, cycles):
        hot = [self._rand_addr(rng) for _ in range(int(rng.integers(1, 4)))]
        vectors = []
        for i in range(cycles):
            addr = hot[i % len(hot)]
            if rng.random() < 0.5:
                vectors.append(TestVector(Operation.WRITE, addr,
                                          self._rand_data(rng)))
            else:
                vectors.append(TestVector(Operation.READ, addr, 0))
        return _columns(vectors)

    def _build_sweep(self, rng, cycles):
        stride = int(rng.integers(1, 17))
        addr = self._rand_addr(rng)
        word = self._rand_data(rng)
        write_phase = bool(rng.integers(0, 2))
        vectors = []
        for _ in range(cycles):
            op = Operation.WRITE if write_phase else Operation.READ
            vectors.append(TestVector(op, addr, word))
            addr = (addr + stride) % (1 << self.addr_bits)
            if rng.random() < 0.02:
                write_phase = not write_phase
        return _columns(vectors)

    def _build_toggle(self, rng, cycles):
        mask = (1 << self.data_bits) - 1
        word = int(rng.integers(0, 1 << self.data_bits))
        half = 1 << (self.addr_bits - 1)
        addr = self._rand_addr(rng)
        vectors = []
        for i in range(cycles):
            word ^= mask
            addr ^= half if i % 2 else int(rng.integers(0, 1 << self.addr_bits))
            addr &= (1 << self.addr_bits) - 1
            vectors.append(TestVector(Operation.WRITE, addr, word))
        return _columns(vectors)


class TestArrayBuildersMatchScalarReference:
    GEOMETRIES = (
        {},
        {"addr_bits": 12, "data_bits": 16, "min_cycles": 1},
    )

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["default", "12x16"])
    @pytest.mark.parametrize(
        "style", ["uniform", "burst", "sweep", "hammer", "toggle"]
    )
    def test_same_tests_and_stream_position(self, style, geometry):
        for seed in range(50):
            fast = RandomTestGenerator(seed=seed, **geometry)
            reference = ScalarReferenceGenerator(seed=seed, **geometry)
            for _ in range(3):
                assert fast.generate(style) == reference.generate(style)
            assert fast._rng.random() == reference._rng.random()

    def test_mixed_stream_matches(self):
        """Unforced styles interleave array and scalar builders."""
        fast = RandomTestGenerator(seed=9, condition_space=ConditionSpace())
        reference = ScalarReferenceGenerator(
            seed=9, condition_space=ConditionSpace()
        )
        assert fast.batch(40) == reference.batch(40)
