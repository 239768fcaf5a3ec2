"""Tests for the power-supply-noise estimation substrate (refs [9][10])."""

import numpy as np
import pytest

from repro.device.psn import PSNConfig, SupplyNoiseModel
from repro.patterns.march import compile_march, get_march_test
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import Operation, TestVector, VectorSequence


def nop_sequence(n=100):
    return VectorSequence([TestVector(Operation.NOP, 0, 0)] * n)


def toggle_sequence(n=100):
    vectors = []
    word, addr = 0, 0
    for _ in range(n):
        word ^= 0xFF
        addr ^= 0x3FF
        vectors.append(TestVector(Operation.WRITE, addr, word))
    return VectorSequence(vectors)


@pytest.fixture
def model():
    return SupplyNoiseModel()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PSNConfig(supply_resistance_ohm=0.0)
        with pytest.raises(ValueError):
            PSNConfig(decap_alpha=0.0)
        with pytest.raises(ValueError):
            PSNConfig(decap_alpha=1.5)


class TestActivityModel:
    def test_nop_sequence_has_no_toggles(self, model):
        assert np.all(model.cycle_toggles(nop_sequence()) == 0)

    def test_full_toggle_switches_all_bits(self, model):
        toggles = model.cycle_toggles(toggle_sequence())
        # After the first cycle: 10 address bits + 8 data bits per cycle.
        assert np.all(toggles[1:] == 18)

    def test_nop_current_is_baseline(self, model):
        currents = model.cycle_currents_ma(nop_sequence())
        assert np.all(currents == model.config.baseline_current_ma)

    def test_active_cycles_draw_more(self, model):
        reads = VectorSequence([TestVector(Operation.READ, 0, 0)] * 50)
        read_current = model.cycle_currents_ma(reads)[10]
        nop_current = model.cycle_currents_ma(nop_sequence())[10]
        assert read_current > nop_current


class TestDroop:
    def test_waveform_length_matches_sequence(self, model):
        seq = toggle_sequence(77)
        assert model.droop_waveform_v(seq).shape == (77,)

    def test_toggle_droops_more_than_march(self, model):
        march = compile_march(get_march_test("march_c-"))
        assert model.peak_droop_v(toggle_sequence()) > model.peak_droop_v(march)

    def test_decap_smooths_peak(self):
        stiff = SupplyNoiseModel(PSNConfig(decap_alpha=1.0))
        damped = SupplyNoiseModel(PSNConfig(decap_alpha=0.1))
        seq = toggle_sequence(60)
        assert damped.peak_droop_v(seq) < stiff.peak_droop_v(seq)

    def test_droop_converges_to_steady_state(self, model):
        """Sustained uniform activity saturates the filtered droop."""
        waveform = model.droop_waveform_v(toggle_sequence(400))
        tail = waveform[-50:]
        assert np.ptp(tail) < 1e-6

    def test_min_supply(self, model):
        seq = toggle_sequence()
        droop = model.peak_droop_v(seq)
        assert model.min_supply_v(seq, 1.8) == pytest.approx(1.8 - droop)
        assert droop > 0.0

    def test_droop_profile_argmax_consistent(self, model):
        seq = toggle_sequence(120)
        peak, mean, argmax = model.droop_profile(seq)
        waveform = model.droop_waveform_v(seq)
        assert waveform[argmax] == pytest.approx(peak)
        assert mean <= peak

    def test_droop_magnitude_plausible(self, model):
        """Full-bus toggling at the default network: tens of mV, not volts."""
        droop = model.peak_droop_v(toggle_sequence())
        assert 0.005 < droop < 0.3


class TestWorstCaseAlignment:
    def test_psn_ranks_weakness_pattern_high(self, model):
        """The PSN view agrees with the characterization view: the
        hot-window worst-case pattern is also a top PSN pattern — the
        insight that let the paper retarget [9][10]."""
        generator = RandomTestGenerator(seed=11)
        random_droops = [
            model.peak_droop_v(generator.generate().sequence)
            for _ in range(20)
        ]
        worst = toggle_sequence(120)
        assert model.peak_droop_v(worst) >= np.percentile(random_droops, 90)


def _reference_popcount(values):
    counts = np.zeros_like(values)
    work = values.copy()
    while np.any(work):
        counts += work & 1
        work >>= 1
    return counts


def reference_currents(model, sequence):
    """The per-vector current model as written before it read columns."""
    cfg = model.config
    n = len(sequence)
    addresses = np.array(sequence.addresses(), dtype=np.int64)
    raw_data = np.array(
        [v.data if v.op is Operation.WRITE else -1 for v in sequence], dtype=np.int64
    )
    write_positions = np.where(raw_data >= 0, np.arange(n), -1)
    last_write = np.maximum.accumulate(write_positions)
    bus_data = np.where(last_write >= 0, raw_data[np.maximum(last_write, 0)], 0)
    toggles = np.zeros(n, dtype=float)
    if n >= 2:
        toggles[1:] += _reference_popcount(addresses[1:] ^ addresses[:-1])
        toggles[1:] += _reference_popcount(bus_data[1:] ^ bus_data[:-1])
    active = np.array([v.op is not Operation.NOP for v in sequence], dtype=float)
    currents = (
        cfg.baseline_current_ma
        + cfg.active_cycle_current_ma * active
        + cfg.current_per_toggle_ma * toggles
    )
    return toggles, currents


class TestColumnsMatchPerVectorReference:
    def test_toggles_and_currents_bit_identical(self, model):
        generator = RandomTestGenerator(seed=13)
        sequences = [generator.generate().sequence for _ in range(40)]
        sequences += [nop_sequence(7), toggle_sequence(9), nop_sequence(1)]
        sequences.append(compile_march(get_march_test("march_c-")))
        for sequence in sequences:
            toggles, currents = reference_currents(model, sequence)
            assert np.array_equal(model.cycle_toggles(sequence), toggles)
            assert np.array_equal(model.cycle_currents_ma(sequence), currents)
