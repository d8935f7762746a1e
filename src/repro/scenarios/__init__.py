"""One registry of canonical scenarios.

Every module in this package defines scenarios and registers them with
:func:`~repro.scenarios.base.register`; they are imported here, so
adding a scenario is one new file and nothing else — the CLI views
(``repro run|obs-report|profile|trace-export --scenario NAME``) find it
through :func:`get`.
"""

import importlib
import pkgutil

from repro.scenarios.base import (
    DEFAULT_SEED,
    METRIC_KEYS,
    REGISTRY,
    Scenario,
    ScenarioRun,
    get,
    register,
)

for _module in pkgutil.iter_modules(__path__):
    importlib.import_module(f"{__name__}.{_module.name}")

__all__ = [
    "DEFAULT_SEED",
    "METRIC_KEYS",
    "REGISTRY",
    "Scenario",
    "ScenarioRun",
    "get",
    "register",
]
