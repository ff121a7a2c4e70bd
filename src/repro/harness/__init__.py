"""Experiment harness: metrics, the scenario registry, and figure reproductions.

Lazily exposes the heavier experiment modules so that library users who only
need :class:`~repro.harness.metrics.Metrics` do not pay for them.

Layer contract: the top of the stack -- the only layer (besides the CLI)
allowed to import everything below, including :class:`PRingIndex`.  Nothing
under ``src/repro`` may import the harness except :mod:`repro.cli`;
:mod:`~repro.harness.metrics` is the one exception, a leaf utility injected
downward into every component.  Experiments enter through the scenario
registry (:func:`get_scenario` / :func:`run_spec` -- see
``docs/SCENARIOS.md``), not through bespoke drivers.
"""

from typing import TYPE_CHECKING

from repro.harness.metrics import Metrics

__all__ = [
    "ClusterExperiment",
    "Metrics",
    "ScenarioSpec",
    "figures",
    "get_scenario",
    "run_spec",
    "scenarios",
]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.harness.experiment import ClusterExperiment
    from repro.harness.scenarios import ScenarioSpec, get_scenario, run_spec

_SCENARIO_NAMES = ("ScenarioSpec", "get_scenario", "run_spec")


def __getattr__(name):
    if name == "ClusterExperiment":
        from repro.harness import experiment

        return getattr(experiment, name)
    if name in _SCENARIO_NAMES:
        from repro.harness import scenarios

        return getattr(scenarios, name)
    if name in ("figures", "scenarios"):
        import importlib

        return importlib.import_module(f"repro.harness.{name}")
    raise AttributeError(f"module 'repro.harness' has no attribute {name!r}")
