"""The block-draw model against numpy's own scalar calls.

:mod:`repro.patterns._draws` decodes raw PCG64 words the way
``Generator.random``, ``Generator.choice(k, p=...)`` and
``Generator.integers(0, 2**k)`` consume them.  These tests run both on
the same seeds, so a numpy release that changes any of the four rules
fails here instead of silently changing every random test and GA genome.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns._draws import WordBlock, bounded, bounded_words, choice_cdf, doubles

WEIGHTS = (0.45, 0.45, 0.10)

#: One scalar call: ``"random"``, ``"choice"`` or the bit width of an
#: ``integers(0, 2**bits)`` call.
calls = st.lists(
    st.one_of(st.sampled_from(["random", "choice"]), st.integers(1, 63)),
    min_size=1,
    max_size=40,
)


def scalar_calls(rng, sequence):
    values = []
    for call in sequence:
        if call == "random":
            values.append(rng.random())
        elif call == "choice":
            values.append(int(rng.choice(len(WEIGHTS), p=WEIGHTS)))
        else:
            values.append(int(rng.integers(0, 1 << call)))
    return values


def block_calls(rng, sequence):
    """The same calls decoded from one block, walking the words in order."""
    block = WordBlock(rng, len(sequence))
    uniforms = doubles(block.words)
    position, cached, fresh = 0, block.cached, []
    plan = []
    for call in sequence:
        if call in ("random", "choice") or call > 32:
            plan.append((call, position))
            position += 1
        else:
            if not cached:
                fresh.append(position)
                position += 1
            cached = not cached
            plan.append((call, None))
    halves = block.halves(fresh)
    values, used = [], 0
    for call, at in plan:
        if call == "random":
            values.append(float(uniforms[at]))
        elif call == "choice":
            values.append(
                int(choice_cdf(WEIGHTS).searchsorted(uniforms[at], side="right"))
            )
        elif at is not None:
            values.append(int(bounded_words(block.words[at : at + 1], call)[0]))
        else:
            values.append(int(bounded(halves[used : used + 1], call)[0]))
            used += 1
    block.commit(position, fresh, used)
    return values


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sequence=calls, cached=st.booleans())
def test_block_decode_matches_scalar_calls(seed, sequence, cached):
    scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        # One odd 32-bit draw leaves the high half of a word cached.
        scalar.integers(0, 8)
        block.integers(0, 8)
    assert block_calls(block, sequence) == scalar_calls(scalar, sequence)
    assert block.bit_generator.state == scalar.bit_generator.state
    assert block.random() == scalar.random()


@pytest.mark.parametrize("bits", [1, 2, 7, 16, 31, 32])
def test_array_integers_equal_decoded_halves(bits):
    """The builders also rely on array-bounded ``integers`` calls drawing
    one half per element, as the scalar loop does."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(0, 1 << bits)) for _ in range(9)]
        assert np.random.default_rng(seed).integers(
            0, np.full(9, 1 << bits)
        ).tolist() == want
        assert np.random.default_rng(seed).integers(
            0, 1 << bits, size=9
        ).tolist() == want


def test_uncached_commit_keeps_the_stale_high_half():
    """numpy leaves a consumed high half in ``uinteger`` with
    ``has_uint32 == 0``; the commit must copy that too."""
    scalar, block = np.random.default_rng(5), np.random.default_rng(5)
    scalar_calls(scalar, [8, 8])
    block_calls(block, [8, 8])
    state = scalar.bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] != 0
    assert block.bit_generator.state == state


@pytest.mark.parametrize("bits", [0, 33])
def test_bounded_rejects_unsupported_widths(bits):
    with pytest.raises(ValueError, match="32-bit"):
        bounded(np.zeros(1, dtype=np.uint64), bits)


@pytest.mark.parametrize("bits", [32, 64])
def test_bounded_words_rejects_unsupported_widths(bits):
    with pytest.raises(ValueError, match="63-bit"):
        bounded_words(np.zeros(1, dtype=np.uint64), bits)


def test_non_pcg64_generator_raises_type_error():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        WordBlock(rng, 4)
