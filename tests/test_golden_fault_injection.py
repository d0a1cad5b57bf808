"""Golden results for fault-injected runs.

``test_golden_results.py`` pins error-free counters only.  This file pins
the *full* ``SimulationResult.to_dict()`` of short fault-injected runs —
every parity and SEC-DED scheme family under every single-word error
model, plus the scrubber, the vulnerability meter and iL1 injection — so
any change to the codecs, the word storage or the injector that moves a
single recovery counter fails here with the spec that moved.

To re-pin after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_fault_injection.py --update-golden

then inspect ``git diff tests/golden/fault_injection.json`` and commit it
together with the change that caused it.
"""

import json
import pathlib

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.figures import RELAXED
from repro.harness.spec import ExperimentSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fault_injection.json"

N = 3_000
BENCHMARK = "vortex"
SCHEMES = ("BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)", "ICR-ECC-PP(S)")
RATES = (0.02, 0.05)
MODELS = ("random", "direct", "adjacent", "column")


def _spec(scheme, **kwargs):
    extra = {} if scheme.startswith("Base") else RELAXED
    return ExperimentSpec.from_kwargs(
        BENCHMARK, scheme, n_instructions=N, **kwargs, **extra
    )


#: case name -> spec.  The names are the keys of the golden file.
CASES = {
    f"{scheme}/{model}/{rate}": _spec(scheme, error_rate=rate, error_model=model)
    for scheme in SCHEMES
    for rate in RATES
    for model in MODELS
}
CASES["ICR-ECC-PS(S)/scrub+vulnerability"] = _spec(
    "ICR-ECC-PS(S)", error_rate=0.02, scrub_period=500, measure_vulnerability=True
)
CASES["ICR-P-PS(S)/icache"] = _spec(
    "ICR-P-PS(S)", error_rate=0.02, icache_error_rate=0.01
)


def _result(name):
    # The JSON round-trip normalizes tuples/floats exactly as the file does.
    return json.loads(json.dumps(run_experiment(CASES[name]).to_dict()))


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(
            json.dumps({name: _result(name) for name in CASES}, indent=1) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; generate it with "
        "pytest tests/test_golden_fault_injection.py --update-golden"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_cases_match_golden_keys(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_injected_result(name, golden):
    got = _result(name)
    assert got["dl1"]["errors_injected"] > 0
    assert got == golden[name]
