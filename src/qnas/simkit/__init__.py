from .des import des_validate
from .harness import ScenarioSpec, run_scenario, subseed, summarize

__all__ = ["ScenarioSpec", "run_scenario", "des_validate", "subseed", "summarize"]
