"""QoS-aware autoscaling toolkit: an open multiclass queueing-network
model, a greedy acquire/release planner, a control-loop simulation harness
and a discrete-event validation oracle."""
