"""Where the tracer hooks into each layer of HEAD, named by layer.

Every probe patches the name the callers look up: functions imported by
name into a caller's module are patched in that module, methods on the
class that defines them.  The layer prefixes follow the repo's modules:
``sim``, ``perc`` (perception), ``dec`` (decision: env, agents, reward,
the executing rule), ``learn`` (replay + ``PamdpAgent.learn``), ``nn``
and ``serve``.
"""

from __future__ import annotations

from repro import nn
from repro.decision import agents, environment, fleet, policies, replay, reward
from repro.faults import guard
from repro.nn import layers, recurrent, tensor
from repro.perception import module, sensor, tracking
from repro.serve import engine
from repro.sim import engine as sim_engine

import workloads
from tracer import Tracer

__all__ = ["install"]


def _graph_rows(_self, graph, *rest) -> int:
    return graph.target_features.shape[1]


def _graphs_rows(_self, graphs, *rest) -> int:
    return sum(graph.target_features.shape[1] for graph in graphs)


def _one_row(*_args, **_kwargs) -> int:
    return 1


def _list_rows(_self, items, *rest, **_kwargs) -> int:
    return len(items)


def install(tracer: Tracer, serve_rows=_list_rows) -> None:
    """Patch every layer's entry points onto ``tracer``.

    ``serve_rows`` computes the rows of one ``BatchInferenceEngine.infer``
    call; the serving workload passes its own to stamp when each request
    reaches the engine.
    """
    span, count = tracer.span, tracer.count
    engine_cls = sim_engine.SimulationEngine

    # sim: episode construction, the vectorized step, neighbour queries
    span(environment, "build_episode", "sim.reset")
    span(fleet, "build_fleet_episode", "sim.reset")
    span(engine_cls, "step", "sim.step", rows=lambda self: len(self.vehicles))
    for query in ("leader_of", "follower_of", "leader_in_lane",
                  "follower_in_lane"):
        span(engine_cls, query, "sim.query")

    # perception: sensing, tracking, phantoms, graphs, the guarded predictor
    span(sensor.Sensor, "observe", "perc.sense")
    span(tracking.ObservationBuffer, "update", "perc.track")
    span(module, "build_scene", "perc.phantom")
    span(module, "build_graph", "perc.graph", rows=_one_row)
    span(fleet, "build_graphs", "perc.graph", rows=lambda scenes, road: len(scenes))
    span(guard.PerceptionGuard, "predict", "perc.predict", rows=_graph_rows)
    span(guard.PerceptionGuard, "predict_many", "perc.predict", rows=_graphs_rows)

    # decision: envs' own bookkeeping, the policy forward, reward, the rule
    for env_cls in (environment.DrivingEnv, fleet.FleetEnv):
        span(env_cls, "step", "dec.env")
        span(env_cls, "reset", "dec.env")
    span(agents.PDQNAgent, "act", "dec.act", rows=_one_row)
    span(agents.PDQNAgent, "act_batch", "dec.act", rows=_list_rows)
    span(reward.HybridReward, "compute", "dec.reward")
    span(policies.RuleBasedPolicy, "select_action", "dec.control")

    # learner: replay insert/sample and the update step
    span(agents.PamdpAgent, "observe", "learn.observe")
    span(replay.ReplayBuffer, "sample", "learn.sample")
    span(agents.PamdpAgent, "learn", "learn.update")
    count(agents.PDQNAgent, "_update", "learn.update.useful")

    # nn: exact dispatch counts at the names callers use
    for owner in (layers, recurrent, nn):
        count(owner, "linear", "nn.linear")
    count(nn, "einsum", "nn.einsum")
    count(recurrent, "lstm_sequence", "nn.lstm")
    count(recurrent, "lstm_step", "nn.lstm")
    count(tensor.Tensor, "backward", "nn.backward")

    # serve: one engine call per micro-batch
    span(engine.BatchInferenceEngine, "infer", "serve.batch", rows=serve_rows)
    # the serving loop's waits, so coverage can tell idle from untraced
    span(workloads._IdleSelector, "select", "serve.loop_idle")

    tracer.install_gc_probe()
