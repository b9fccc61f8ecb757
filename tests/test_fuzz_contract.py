"""The README contract under every valid config: fact tests never raise on
data problems.

Each example draws every FactConfig knob inside the range its field
declares, with counts, lags and bootstrap sizes capped small so that no
example allocates much or runs long, and runs all eleven facts on a short,
a flat, a gappy (forward-filled) and a volume-less series, both directly on
a SeriesContext and through run_all_facts.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stylfacts import facts
from stylfacts.facts import FactConfig, FactId, FactStatus, SeriesContext, run_all_facts
from stylfacts.series import PriceSeries, SamplingGrid, validate_and_gapfill
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, simulate

DAY = 86400

# upper ends for ints whose range has none; every other unbounded int stops at
# _CAP, which covers every lag, window, stride and ladder ratio a short series
# can use
_CAPS = {"seed": 2**64, "step_seconds": 10**6, "f3_min_segment": 1000,
         "f4_min_windows": 300, "f6_n_boot": 40, "f8_min_returns": 2000,
         "f10_min_samples": 300, "f11_n_boot": 40}
_CAP = 80


def _knob(name, kind, low, high):
    if kind is float:
        return st.floats(-10.0 if low is None else low, 10.0 if high is None else high,
                         exclude_min=low is not None, exclude_max=high is not None)
    ints = st.integers(-10 if low is None else low,
                       high if high is not None else _CAPS.get(name, _CAP))
    return ints if kind is int else st.none() | ints


configs = st.builds(FactConfig, **{rule[0]: _knob(*rule)
                                   for rule in facts._knob_rules(FactConfig)})


@functools.cache
def _series(name):
    if name == "short":
        return simulate(GjrSpec(n_steps=600, seed=11))
    if name == "flat":
        ts = np.arange(600, dtype=np.int64) * DAY
        one = np.ones(600)
        return PriceSeries(ts, one, one, one, one, one)
    if name == "gappy":
        ps = simulate(GarchSpec(n_steps=1200, seed=12))
        keep = np.random.default_rng(12).random(len(ps)) > 0.15
        keep[0] = True
        cut = PriceSeries(ps.timestamps[keep], ps.open[keep], ps.high[keep], ps.low[keep],
                          ps.close[keep], ps.volume[keep])
        return validate_and_gapfill(cut, SamplingGrid(DAY), policy="ffill")
    return simulate(GbmSpec(n_steps=1500, seed=13, volume_mode="none"))


@given(name=st.sampled_from(["short", "flat", "gappy", "volumeless"]), config=configs)
@settings(max_examples=120, deadline=None)
def test_no_fact_raises_under_any_valid_config(name, config):
    ps = _series(name)
    ctx = SeriesContext(ps, config)
    for fact, test_name in facts._TESTS.items():
        v = getattr(facts, test_name)(ctx)
        assert v.fact is fact
        assert v.status in FactStatus
    out = run_all_facts(ps, config)
    assert list(out) == list(FactId)
    assert all(v.status in FactStatus for v in out.values())
