from .des import des_validate
from .harness import ScenarioSpec, run_scenario, summarize
from .seeds import subseed

__all__ = ["ScenarioSpec", "run_scenario", "des_validate", "subseed", "summarize"]
