"""QoS-aware autoscaling toolkit: an open multiclass queueing-network
model, a greedy acquire/release planner, a control-loop simulation harness
and a discrete-event validation oracle."""

from .errors import (
    ConfigError,
    InfeasibleConfiguration,
    IterationCap,
    OverloadedStation,
    QnasError,
    UnattainableSla,
)
from .model import (
    ArrivalRates,
    BaselineSnapshot,
    Configuration,
    DemandMatrix,
    ResponseTimes,
    UtilizationVector,
    capacity_floor,
    make_snapshot,
    min_feasible_config,
    predict_response,
    rescale_snapshot,
    utilization,
)
from .planner import PlanOutcome, SlaThresholds, acquire, plan_step, release

__version__ = "0.1.0"
