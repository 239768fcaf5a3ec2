"""The block-drawn builders and style draw against their numpy calls.

The reference below is how the ``burst`` and ``hammer`` builders were
written before they drew whole blocks (a few scalar ``Generator`` calls per
burst or cycle), and how the ``uniform`` builder and the style draw were
written before they decoded raw words (``choice`` and ``integers`` calls).
The block forms must return the same columns and leave the Generator in the
same state, cached 32-bit half included, so every later draw of a stream
stays aligned.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns.random_gen import STYLES, RandomTestGenerator
from repro.patterns.vectors import READ_CODE, WRITE_CODE


class ScalarBuilders(RandomTestGenerator):
    def _draw_style(self, rng):
        names = [name for name, _ in STYLES]
        weights = np.array([w for _, w in STYLES])
        return str(rng.choice(names, p=weights / weights.sum()))

    def _build_uniform(self, rng, cycles):
        ops = rng.choice(3, size=cycles, p=[0.45, 0.45, 0.10])
        draws = rng.integers(
            0, np.tile([1 << self.addr_bits, 1 << self.data_bits], cycles)
        )
        return ops, draws[0::2], draws[1::2]

    def _build_burst(self, rng, cycles):
        addresses: List[int] = []
        data: List[int] = []
        while len(addresses) < cycles:
            base = self._rand_addr(rng)
            burst = int(rng.integers(2, 9))
            word = self._rand_data(rng)
            for offset in range(burst):
                addr = (base + offset) % (1 << self.addr_bits)
                addresses += (addr, addr)
                data += (word ^ offset, 0)
        ops = np.tile(np.array([WRITE_CODE, READ_CODE]), len(addresses) // 2)
        return ops[:cycles], addresses[:cycles], data[:cycles]

    def _build_hammer(self, rng, cycles):
        hot = [self._rand_addr(rng) for _ in range(int(rng.integers(1, 4)))]
        ops: List[int] = []
        data: List[int] = []
        for _ in range(cycles):
            if rng.random() < 0.5:
                ops.append(WRITE_CODE)
                data.append(self._rand_data(rng))
            else:
                ops.append(READ_CODE)
                data.append(0)
        addresses = np.resize(np.array(hot), cycles)
        return ops, addresses, data


def _lists(columns):
    return [np.asarray(column).tolist() for column in columns]


def _pair(seed, cached):
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        # One odd 32-bit draw leaves the high half of a word cached.
        for rng in rngs:
            rng.integers(0, 8)
    return rngs


geometry = st.tuples(st.integers(1, 16), st.integers(1, 16))
#: Buses wider than 32 bits take numpy's ``integers`` path.
wide_geometry = st.tuples(st.integers(1, 48), st.integers(1, 48))
#: Past 32 data bits a ``hammer`` write draws one whole word, and the
#: cached 32-bit half stays where it was.
wide_data = st.sampled_from([(36, 40), (12, 63), (8, 33)])


class TestBlockBuildersMatchScalarLoops:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.one_of(geometry, wide_geometry),
        cycles=st.integers(1, 1000),
        cached=st.booleans(),
    )
    def test_uniform(self, seed, bits, cycles, cached):
        addr_bits, data_bits = bits
        rng, ref_rng = _pair(seed, cached)
        got = RandomTestGenerator(addr_bits=addr_bits, data_bits=data_bits)\
            ._build_uniform(rng, cycles)
        want = ScalarBuilders(addr_bits=addr_bits, data_bits=data_bits)\
            ._build_uniform(ref_rng, cycles)
        assert _lists(got) == _lists(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 50),
           cached=st.booleans())
    def test_style_draw(self, seed, draws, cached):
        rng, ref_rng = _pair(seed, cached)
        fast, reference = RandomTestGenerator(), ScalarBuilders()
        for _ in range(draws):
            assert fast._draw_style(rng) == reference._draw_style(ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=geometry,
        cycles=st.integers(1, 1000),
        cached=st.booleans(),
    )
    def test_burst(self, seed, bits, cycles, cached):
        addr_bits, data_bits = bits
        rng, ref_rng = _pair(seed, cached)
        got = RandomTestGenerator(addr_bits=addr_bits, data_bits=data_bits)\
            ._build_burst(rng, cycles)
        want = ScalarBuilders(addr_bits=addr_bits, data_bits=data_bits)\
            ._build_burst(ref_rng, cycles)
        ops, addresses, data = _lists(want)
        # The scalar loop writes word ^ offset (offset <= 7) unmasked, off
        # the bus below 3 data bits; the block builder masks it.
        mask = (1 << data_bits) - 1
        if data_bits >= 3:
            assert all(word <= mask for word in data)
        assert _lists(got) == [ops, addresses, [word & mask for word in data]]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.one_of(geometry, wide_data),
        cycles=st.integers(1, 1000),
        cached=st.booleans(),
    )
    def test_hammer(self, seed, bits, cycles, cached):
        addr_bits, data_bits = bits
        rng, ref_rng = _pair(seed, cached)
        got = RandomTestGenerator(addr_bits=addr_bits, data_bits=data_bits)\
            ._build_hammer(rng, cycles)
        want = ScalarBuilders(addr_bits=addr_bits, data_bits=data_bits)\
            ._build_hammer(ref_rng, cycles)
        assert _lists(got) == _lists(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("style", ["uniform", "burst", "hammer", None])
    def test_generated_streams_match(self, style):
        """Whole tests, names and the stream after 20 of them (``None``:
        styles drawn from the mixing weights)."""
        for seed in range(10):
            fast = RandomTestGenerator(seed=seed, addr_bits=12, data_bits=16)
            reference = ScalarBuilders(seed=seed, addr_bits=12, data_bits=16)
            for _ in range(20):
                got, want = fast.generate(style), reference.generate(style)
                assert got == want and got.name == want.name
            assert fast._rng.bit_generator.state == \
                reference._rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       bits=st.one_of(geometry, wide_data))
def test_every_style_builds_valid_tests_on_narrow_and_wide_buses(seed, bits):
    addr_bits, data_bits = bits
    generator = RandomTestGenerator(
        seed=seed, addr_bits=addr_bits, data_bits=data_bits,
        min_cycles=1, max_cycles=300,
    )
    for style, _ in STYLES:
        test = generator.generate(style)
        sequence = test.sequence
        assert (sequence.addr_bits, sequence.data_bits) == bits
        _, addresses, data = sequence.columns
        assert addresses.max() < (1 << addr_bits)
        assert data.max() < (1 << data_bits)


@pytest.mark.parametrize("style", ["burst", "hammer"])
def test_non_pcg64_generator_raises_type_error(style):
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        getattr(RandomTestGenerator(), f"_build_{style}")(rng, 100)
