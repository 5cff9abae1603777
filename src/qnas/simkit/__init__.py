from .des import DesResult, des_validate
from .harness import RunRecord, RunSummary, ScenarioSpec, run_scenario, summarize
from .seeds import subseed

__all__ = [
    "DesResult",
    "des_validate",
    "RunRecord",
    "RunSummary",
    "ScenarioSpec",
    "run_scenario",
    "summarize",
    "subseed",
]
