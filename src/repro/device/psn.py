"""Power-supply-noise (PSN) estimation.

The paper "re-configure[s] our previous work [9][10]" — automatic worst
case pattern generation for *estimation of PSN in CMOS circuits* — into
device characterization.  This module reproduces that foundation as an
analysis substrate: a first-order supply network model that turns a vector
sequence's cycle-by-cycle switching activity into a supply-droop waveform.

Model
-----
Each cycle draws a current proportional to the bus switching activity
(address + data Hamming weight) on top of a baseline draw; the decoupling
network low-pass-filters the draw (single-pole IIR); the droop is the
filtered current across the effective supply resistance::

    I[k]     = I_base + I_toggle * (addr_toggles[k] + data_toggles[k])
    I_f[k]   = (1 - alpha) * I_f[k-1] + alpha * I[k]
    droop[k] = R * I_f[k]

The worst-case PSN pattern is the one maximizing ``max_k droop[k]`` — the
same hot-window activity the ``T_DQ`` weakness keys on, which is why the
paper could retarget the method from PSN to characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.patterns.features import popcount
from repro.patterns.vectors import NOP_CODE, WRITE_CODE, VectorSequence


@dataclass(frozen=True)
class PSNConfig:
    """Supply-network constants."""

    #: Effective supply-loop resistance in ohms (package + grid, local).
    supply_resistance_ohm: float = 1.5
    #: Decap low-pass coefficient in (0, 1]; 1 = no decoupling.
    decap_alpha: float = 0.35
    #: Baseline (non-switching) current draw, mA.
    baseline_current_ma: float = 12.0
    #: Current per switching bit (address or data), mA.
    current_per_toggle_ma: float = 1.1
    #: Extra draw of an active (read/write) cycle over a NOP, mA.
    active_cycle_current_ma: float = 3.0

    def __post_init__(self) -> None:
        if self.supply_resistance_ohm <= 0:
            raise ValueError("supply resistance must be positive")
        if not 0.0 < self.decap_alpha <= 1.0:
            raise ValueError("decap_alpha must lie in (0, 1]")


class SupplyNoiseModel:
    """Cycle-resolved supply droop of a vector sequence."""

    def __init__(self, config: PSNConfig = PSNConfig()) -> None:
        self.config = config

    # -- activity ---------------------------------------------------------------
    def cycle_toggles(self, sequence: VectorSequence) -> np.ndarray:
        """Per-cycle switched bits (address bus + write-data bus)."""
        ops, addresses, data = sequence.columns
        n = len(ops)
        write_positions = np.where(ops == WRITE_CODE, np.arange(n), -1)
        last_write = np.maximum.accumulate(write_positions)
        bus_data = np.where(last_write >= 0, data[np.maximum(last_write, 0)], 0)

        toggles = np.zeros(n, dtype=float)
        if n >= 2:
            toggles[1:] += popcount(
                addresses[1:] ^ addresses[:-1], sequence.addr_bits
            )
            toggles[1:] += popcount(
                bus_data[1:] ^ bus_data[:-1], sequence.data_bits
            )
        return toggles

    def cycle_currents_ma(self, sequence: VectorSequence) -> np.ndarray:
        """Per-cycle instantaneous current draw in mA."""
        cfg = self.config
        toggles = self.cycle_toggles(sequence)
        ops, _, _ = sequence.columns
        active = (ops != NOP_CODE).astype(float)
        return (
            cfg.baseline_current_ma
            + cfg.active_cycle_current_ma * active
            + cfg.current_per_toggle_ma * toggles
        )

    # -- droop -------------------------------------------------------------------
    def droop_waveform_v(self, sequence: VectorSequence) -> np.ndarray:
        """Per-cycle supply droop in volts (decap-filtered).

        ``mA x ohm = mV``, hence the /1000 to volts.
        """
        cfg = self.config
        currents = self.cycle_currents_ma(sequence)
        filtered = np.empty_like(currents)
        state = cfg.baseline_current_ma
        for index, current in enumerate(currents):
            state = (1.0 - cfg.decap_alpha) * state + cfg.decap_alpha * current
            filtered[index] = state
        return cfg.supply_resistance_ohm * filtered / 1000.0

    def peak_droop_v(self, sequence: VectorSequence) -> float:
        """Worst droop over the sequence, in volts."""
        return float(np.max(self.droop_waveform_v(sequence)))

    def min_supply_v(self, sequence: VectorSequence, vdd: float) -> float:
        """Lowest local supply seen during the pattern."""
        return vdd - self.peak_droop_v(sequence)

    def droop_profile(
        self, sequence: VectorSequence
    ) -> Tuple[float, float, int]:
        """(peak droop V, mean droop V, argmax cycle) — report summary."""
        waveform = self.droop_waveform_v(sequence)
        return (
            float(waveform.max()),
            float(waveform.mean()),
            int(waveform.argmax()),
        )
