"""Golden results for the per-access pipeline path.

``tests/differential/`` compares the kernel tiers with each other, but
the per-access SoA tier and the object tier both run
:meth:`~repro.cpu.pipeline.OutOfOrderPipeline.run`, so a change to that
scoreboard loop (fetch, functional units, branch outcomes, the plain
L2/iL1) would move both tiers together and pass there.  This file pins
the full ``SimulationResult.to_dict()`` of short runs that go through
that loop: write-through, a decayed SoA dL1, both wrapper baselines,
warm-up exclusion, a disabled iL1, a non-default functional-unit mix
(so the unit tie-break matters) and iL1 fault injection.

To re-pin after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_per_access.py --update-golden

then inspect ``git diff tests/golden/per_access.json`` and commit it
together with the change that caused it.
"""

import json
import pathlib

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.core.array_kernel import backend_mode
from repro.cpu.funits import FUSpec
from repro.cpu.pipeline import PipelineConfig
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec, MachineConfig

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "per_access.json"

N = 5_000
BENCHMARK = "gzip"

CUSTOM_FUS = MachineConfig(
    pipeline=PipelineConfig(
        fu_specs={
            "int_alu": FUSpec(count=3, latency=1, interval=2),
            "mem_port": FUSpec(count=1, latency=1),
        }
    )
)

#: case name -> spec.  The names are the keys of the golden file.
CASES = {
    "BaseP-WT": ExperimentSpec(BENCHMARK, "BaseP-WT", n_instructions=N),
    "ICR-P-PS(S)/decay1000/array": ExperimentSpec.from_kwargs(
        BENCHMARK,
        "ICR-P-PS(S)",
        n_instructions=N,
        backend="array",
        decay_window=1000,
    ),
    "rcache": ExperimentSpec(BENCHMARK, "rcache", n_instructions=N),
    "victim-cache": ExperimentSpec(BENCHMARK, "victim-cache", n_instructions=N),
    "ICR-P-PS(S)/warmup3000": ExperimentSpec(
        BENCHMARK, "ICR-P-PS(S)", n_instructions=N, warmup_instructions=3000
    ),
    "BaseP/no-icache": ExperimentSpec(
        BENCHMARK,
        "BaseP",
        n_instructions=N,
        machine=MachineConfig(hierarchy=HierarchyConfig(model_icache=False)),
    ),
    "BaseP/custom-fus": ExperimentSpec(
        BENCHMARK, "BaseP", n_instructions=N, machine=CUSTOM_FUS
    ),
    "ICR-P-PS(S)/custom-fus/array": ExperimentSpec.from_kwargs(
        BENCHMARK,
        "ICR-P-PS(S)",
        n_instructions=N,
        machine=CUSTOM_FUS,
        backend="array",
        decay_window=1000,
    ),
    "BaseP/icache-errors": ExperimentSpec(
        BENCHMARK, "BaseP", n_instructions=N, icache_error_rate=0.01
    ),
}


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
        "pytest tests/test_golden_per_access.py --update-golden"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_cases_match_golden_keys(golden):
    assert sorted(golden) == sorted(CASES)


def test_cases_take_the_per_access_path():
    # None of the pinned specs may be served by the batched engine.
    for name, spec in CASES.items():
        assert backend_mode(spec) in ("object", "array-soa"), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_access_result(name, golden):
    assert _result(name) == golden[name]
