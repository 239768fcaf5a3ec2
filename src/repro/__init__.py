"""Computational intelligence characterization of semiconductor devices.

Reproduction of Liau & Schmitt-Landsiedel, *Computational Intelligence
Characterization Method of Semiconductor Device*, DATE 2005.

The package is layered bottom-up:

* :mod:`repro.patterns` — test stimuli (vector sequences, conditions, march
  and random generators, feature extraction, NN/GA codecs);
* :mod:`repro.device` — behavioural 140nm memory-test-chip substitute with
  process variation and a hidden worst-case weakness;
* :mod:`repro.ate` — industrial ATE simulator (strobe pass/fail, noise,
  shmoo, datalog, binning);
* :mod:`repro.search` — conventional trip-point searches (linear, binary,
  successive approximation);
* :mod:`repro.nn`, :mod:`repro.fuzzy`, :mod:`repro.ga` — from-scratch
  computational-intelligence substrates;
* :mod:`repro.core` — the paper's contribution: multiple trip points, the
  Search-Until-Trip-Point algorithm, WCR classification, and the fig. 4/5
  learning + optimization schemes;
* :mod:`repro.analysis` — statistics, drift analysis and report formatting;
* :mod:`repro.obs` — structured telemetry (schema-checked events, metrics
  registry, phase timing, trace/summary reports), off by default.

Quickstart::

    from repro import DeviceCharacterizer
    characterizer = DeviceCharacterizer.with_default_setup(seed=1)
    report = characterizer.run_table1_comparison(random_tests=200)
    print(report.to_text())
"""

__version__ = "1.0.0"

__all__ = [
    "DeviceCharacterizer",
    "SearchUntilTripPoint",
    "WCRClass",
    "worst_case_ratio",
    "__version__",
]

_LAZY_EXPORTS = {
    "DeviceCharacterizer": ("repro.core.characterizer", "DeviceCharacterizer"),
    "SearchUntilTripPoint": ("repro.core.sutp", "SearchUntilTripPoint"),
    "WCRClass": ("repro.core.wcr", "WCRClass"),
    "worst_case_ratio": ("repro.core.wcr", "worst_case_ratio"),
}


def __getattr__(name: str):
    """Lazily resolve the top-level convenience exports (PEP 562)."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)
