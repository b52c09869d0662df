"""The four benchmark workloads: set-up, a measured phase, output digests.

Each workload builds everything it needs in :meth:`setup`, then
:meth:`run` does a fixed amount of work derived from the seed and the
requested seconds (``units_per_second`` is what a 2-core x86 host does
per second), and :meth:`check` verifies what the program produced.
Fixed work makes every output a pure function of ``(seed, seconds)``:
the traced run must reproduce the untraced run's digest over all of it,
and both commits of a comparison process the same inputs.  The digest
over the first ``min_units`` episodes does not depend on the run length
and is pinned for seed 0 in ``pinned.json``.  ``window`` is how many
consecutive steps (serving: requests) make one window of the reported
rates and percentiles (see ``run.py``).

Why each workload exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import math
import selectors
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import HEADConfig
from repro.core.head import HEAD
from repro.decision.environment import DrivingEnv
from repro.decision.pamdp import LaneBehavior
from repro.decision.policies import IDMLCPolicy
from repro.decision.trainer import NaNLossError, train_agent
from repro.perception.module import EnhancedPerception
from repro.serve import (BatchInferenceEngine, BatcherConfig, ClientConfig,
                         InferenceServer, LoadReport, ServeClient,
                         ServerConfig, ServiceLevel, Verdict)
from repro.seeding import default_generator
from repro.sim import constants
from repro.sim.road import Road

__all__ = ["WORKLOADS", "Run"]

#: Network weights are part of the program under test, not of its input:
#: every workload builds HEAD from this seed, and only episode seeds and
#: request schedules derive from ``--seed``.
WEIGHTS_SEED = 0

#: Episode ``i`` of a run with seed ``s`` uses ``s * SEED_STRIDE + i``.
SEED_STRIDE = 100_000
#: Warm-up runs the same episodes whatever the seed, so that set-up
#: time measures the same work in every run.
WARMUP_SEED = 7_654_321
#: The serving pool is harvested from episodes ``s * SEED_STRIDE +
#: HARVEST_OFFSET + i``, disjoint from any timed episode.
HARVEST_OFFSET = 90_000


@dataclass
class Run:
    """Raw measurements and outputs of one timed phase."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    av_steps: int = 0
    step_s: list[float] = field(default_factory=list)
    decide_s: list[float] = field(default_factory=list)
    #: ``(time, AV steps so far)`` at the start and after every step of
    #: a rollout; empty for serving.
    marks: list[tuple[float, int]] = field(default_factory=list)
    digest: str = ""
    pinned_digest: str = ""
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _digest(parts) -> str:
    """SHA-256 over the exact ``repr`` of every part (floats round-trip)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
    return sha.hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}",
          file=sys.stderr)


class _FleetMember:
    """One AV of a fleet seen through the single-AV env interface.

    :class:`IDMLCPolicy` reads ``env.frame``, ``env.av`` and
    ``env.road``; this view answers them for one fleet member.
    """

    def __init__(self, env, vid: str) -> None:
        self.env, self.vid, self.road = env, vid, env.road

    @property
    def frame(self):
        return self.env.frame(self.vid)

    @property
    def av(self):
        return self.env.av(self.vid)


def _units(workload, seconds: float) -> int:
    return max(workload.min_units, round(seconds * workload.units_per_second))


class _Rollouts:
    """Greedy rollouts: seeded episodes, one after another.

    Subclasses provide ``_episode(state, episode_seed, run)``, which
    appends its step timings to ``run`` and returns the episode's
    outputs as a tuple starting with the seed.
    """

    def run(self, state: dict, seed: int, seconds: float, tracer=None) -> Run:
        run = Run()
        episodes = []
        clock = time.perf_counter
        start = clock()
        run.marks.append((start, 0))
        for index in range(_units(self, seconds)):
            episode_seed = seed * SEED_STRIDE + index
            if tracer is not None:
                tracer.context = episode_seed
            run.attempted += 1
            try:
                episodes.append(self._episode(state, episode_seed, run))
            except Exception:
                _report_failure(f"{self.name} episode {episode_seed}")
                run.failed += 1
                episodes.append((episode_seed, "failed"))
        run.wall_s = clock() - start
        run.extra["episodes"] = episodes
        return run

    def _digests(self, run: Run) -> list:
        episodes = run.extra.pop("episodes")
        run.digest = _digest(episodes)
        run.pinned_digest = _digest(episodes[:self.min_units])
        return [e for e in episodes if e[1] != "failed"]


# ----------------------------------------------------------------------
# eval_scaled: one AV, closed-loop greedy episodes at the scaled config
# ----------------------------------------------------------------------
class EvalScaled(_Rollouts):
    name = "eval_scaled"
    units_per_second = 7.0
    window = 200
    min_units = 8
    warmup_episodes = 2

    def config(self) -> HEADConfig:
        return HEADConfig().scaled()

    def setup(self, seed: int) -> dict:
        head = HEAD(self.config(), rng=default_generator(WEIGHTS_SEED))
        state = {"head": head, "env": head.make_env(), "rule": IDMLCPolicy()}
        for i in range(self.warmup_episodes):
            self._episode(state, WARMUP_SEED + i, Run())
        return state

    def _episode(self, state: dict, episode_seed: int, run: Run) -> tuple:
        """Greedy ``act_batch`` is timed each step; the rule drives."""
        env, rule, agent = state["env"], state["rule"], state["head"].agent
        clock = time.perf_counter
        obs = env.reset(episode_seed)
        rule.begin_episode()
        chosen = []
        while True:
            start = clock()
            greedy = agent.act_batch([obs], explore=False)[0]
            action = rule.select_action(env, obs)
            decided = clock()
            obs, _, done, _ = env.step(action)
            end = clock()
            run.decide_s.append(decided - start)
            run.step_s.append(end - start)
            run.av_steps += 1
            run.marks.append((end, run.av_steps))
            chosen.append((int(greedy.behavior), greedy.accel))
            if done:
                break
        result = env.result
        return (episode_seed, result.steps, result.finished, result.collided,
                result.records, chosen)

    def check(self, state: dict, run: Run) -> None:
        done = self._digests(run)
        run.outputs = {"episodes": run.attempted,
                       "collisions": sum(1 for e in done if e[3]),
                       "finished": sum(1 for e in done if e[2])}
        cap = self.config().max_episode_steps
        for episode_seed, steps, finished, collided, records, chosen in done:
            if len(records) != steps or not (finished or collided
                                             or steps >= cap):
                run.problems.append(f"episode {episode_seed} ended early")
            if not all(math.isfinite(r.reward.total) for r in records):
                run.problems.append(f"episode {episode_seed}: non-finite reward")
            if not all(abs(accel) <= constants.A_MAX for _, accel in chosen):
                run.problems.append(f"episode {episode_seed}: action out of bounds")


# ----------------------------------------------------------------------
# fleet_paper: four AVs in one engine on the paper road
# ----------------------------------------------------------------------
class FleetPaper(_Rollouts):
    name = "fleet_paper"
    num_avs = 4
    units_per_second = 0.4
    window = 100
    min_units = 2
    warmup_steps = 10

    def config(self) -> HEADConfig:
        return HEADConfig()

    def setup(self, seed: int) -> dict:
        head = HEAD(self.config(), rng=default_generator(WEIGHTS_SEED))
        env = head.make_fleet_env(self.num_avs)
        state = {"head": head, "env": env,
                 "controller": head.fleet_controller(),
                 "rules": {vid: IDMLCPolicy() for vid in env.av_ids},
                 "views": {vid: _FleetMember(env, vid) for vid in env.av_ids}}
        self._episode(state, WARMUP_SEED, Run(),
                      max_steps=self.warmup_steps)
        return state

    def _episode(self, state: dict, episode_seed: int, run: Run,
                 max_steps: int | None = None) -> tuple:
        env, controller = state["env"], state["controller"]
        rules, views = state["rules"], state["views"]
        clock = time.perf_counter
        obs = env.reset(episode_seed)
        for rule in rules.values():
            rule.begin_episode()
        chosen = []
        steps = 0
        while obs:
            start = clock()
            greedy = controller.select_actions(obs)
            actions = {vid: rules[vid].select_action(views[vid], obs[vid])
                       for vid in obs}
            decided = clock()
            obs, _, done, _ = env.step(actions)
            end = clock()
            run.decide_s.append(decided - start)
            run.step_s.append(end - start)
            run.av_steps += len(actions)
            run.marks.append((end, run.av_steps))
            chosen.append(sorted((vid, int(a.behavior), a.accel)
                                 for vid, a in greedy.items()))
            steps += 1
            if done or (max_steps is not None and steps >= max_steps):
                break
        result = env.result()
        per_av = sorted((vid, r.steps, r.finished, r.collided)
                        for vid, r in result.results.items())
        return (episode_seed, result.steps, per_av, result.fleet_records,
                chosen)

    def check(self, state: dict, run: Run) -> None:
        done = self._digests(run)
        per_av = [av for e in done for av in e[2]]
        run.outputs = {"episodes": run.attempted,
                       "collisions": sum(1 for av in per_av if av[3]),
                       "finished": sum(1 for av in per_av if av[2]),
                       "av_av_collisions": sum(
                           1 for e in done for r in e[3] if r.collided_with_av)}
        cap = self.config().max_episode_steps
        for episode_seed, steps, avs, records, chosen in done:
            if steps >= cap:
                continue
            if not all(finished or collided for _, _, finished, collided in avs):
                run.problems.append(f"fleet episode {episode_seed} ended early")
            if not all(math.isfinite(r.record.reward.total) for r in records):
                run.problems.append(f"fleet episode {episode_seed}: non-finite reward")


# ----------------------------------------------------------------------
# train_scaled: serial train_agent, exploring PDQN, learn_every=1
# ----------------------------------------------------------------------
class TrainScaled:
    name = "train_scaled"
    units_per_second = 4.0
    window = 100
    min_units = 12
    #: Enough warm-up for a couple of hundred updates, so that set-up
    #: time is mostly update work, like the measured phase.
    warmup_episodes = 10

    def config(self) -> HEADConfig:
        return HEADConfig().scaled()

    def _build(self) -> tuple[HEAD, DrivingEnv]:
        head = HEAD(self.config(), rng=default_generator(WEIGHTS_SEED))
        return head, head.make_env()

    def setup(self, seed: int) -> dict:
        # Warm the update path (plan caches, gradient buffers) on a
        # throwaway learner that starts updating after one batch; the
        # timed learner starts from fresh weights.
        scratch, scratch_env = self._build()
        scratch.agent.warmup = scratch.agent.batch_size
        train_agent(scratch.agent, scratch_env, episodes=self.warmup_episodes,
                    seed_offset=WARMUP_SEED)
        head, env = self._build()
        return {"head": head, "env": _StampedEnv(env)}

    def run(self, state: dict, seed: int, seconds: float, tracer=None) -> Run:
        run = Run()
        agent, env = state["head"].agent, state["env"]
        clock = time.perf_counter
        rewards, steps, collided, finished = [], [], [], []
        weights = ""
        start = clock()
        for index in range(_units(self, seconds)):
            episode_seed = seed * SEED_STRIDE + index
            if tracer is not None:
                tracer.context = episode_seed
            run.attempted += 1
            try:
                log = train_agent(agent, env, episodes=1,
                                  seed_offset=episode_seed, learn_every=1)
            except NaNLossError:
                _report_failure(f"training episode {episode_seed}")
                run.failed += 1
                break
            run.failed += log.nan_rollbacks
            rewards.extend(log.episode_rewards)
            steps.extend(log.episode_steps)
            collided.append(log.collisions)
            finished.append(env.result.finished)
            if index + 1 == self.min_units:
                weights = _weights_digest(agent)
        run.wall_s = clock() - start
        run.step_s = env.step_durations()
        run.decide_s = env.decide_durations()
        run.av_steps = sum(steps)
        run.marks = [(start, 0)] + [(stamp, index + 1) for index, stamp
                                    in enumerate(env.step_returns())]
        run.extra = {"rewards": rewards, "steps": steps, "collided": collided,
                     "finished": finished, "weights": weights,
                     "final_weights": _weights_digest(agent),
                     "transitions": agent.total_steps}
        return run

    def check(self, state: dict, run: Run) -> None:
        extra = run.extra
        rewards, keep = extra["rewards"], self.min_units
        run.pinned_digest = _digest([rewards[:keep], extra["steps"][:keep],
                                     extra["collided"][:keep], extra["weights"]])
        run.digest = _digest([rewards, extra["steps"], extra["collided"],
                              extra["final_weights"]])
        run.outputs = {"episodes": len(rewards),
                       "collisions": sum(extra["collided"]),
                       "finished": sum(extra["finished"]),
                       "transitions": extra["transitions"]}
        if not all(math.isfinite(r) for r in rewards):
            run.problems.append("non-finite episode reward")
        if len(rewards) < keep and not run.failed:
            run.problems.append("fewer training episodes than the digest needs")


def _weights_digest(agent) -> str:
    sha = hashlib.sha256()
    for net in (agent.q_net, agent.x_net, agent.q_target, agent.x_target):
        for param in net.parameters():
            sha.update(np.ascontiguousarray(param.data).tobytes())
    return sha.hexdigest()


class _StampedEnv:
    """Forwards to a :class:`DrivingEnv`, stamping its calls and returns.

    ``train_agent`` owns its loop, so steps are timed from outside: a
    decision step runs from the previous ``reset``/``step`` return to
    this ``step``'s return (storing the transition, the update, the
    exploring ``act`` and the env step), and its decision latency from
    that return to this ``step``'s call.
    """

    def __init__(self, env: DrivingEnv) -> None:
        self._env = env
        self._returns: list[tuple[str, float]] = []
        self._calls: list[float] = []

    def __getattr__(self, name):
        return getattr(self._env, name)

    def reset(self, seed: int):
        state = self._env.reset(seed)
        self._returns.append(("reset", time.perf_counter()))
        return state

    def step(self, action):
        self._calls.append(time.perf_counter())
        result = self._env.step(action)
        self._returns.append(("step", time.perf_counter()))
        return result

    def step_returns(self) -> list[float]:
        """When each step returned, in order."""
        return [stamp for kind, stamp in self._returns if kind == "step"]

    def step_durations(self) -> list[float]:
        """Previous return -> this step's return, for every step."""
        stamps = self._returns
        return [stamps[i][1] - stamps[i - 1][1] for i in range(1, len(stamps))
                if stamps[i][0] == "step"]

    def decide_durations(self) -> list[float]:
        """Previous return -> this step's call, for every step."""
        out = []
        calls = iter(self._calls)
        for i in range(1, len(self._returns)):
            if self._returns[i][0] == "step":
                out.append(next(calls) - self._returns[i - 1][1])
        return out


# ----------------------------------------------------------------------
# serve_open: open-loop Poisson stream into the in-process server
# ----------------------------------------------------------------------
class ServeOpen:
    name = "serve_open"
    #: Offered load, requests per second: a quarter of the rate at which
    #: queueing set in on a 2-core x86 host while it ran slow (README.md).
    rate = 225.0
    #: Requests per window of the latency percentiles: one second's worth.
    window = 225
    #: A request answered later than this after its scheduled send time
    #: counts as failed, like a shed or errored one.
    latency_limit_s = 0.1
    pool_size = 256
    warmup_s = 0.5

    def config(self) -> HEADConfig:
        return HEADConfig()

    def setup(self, seed: int) -> dict:
        head = HEAD(self.config(), rng=default_generator(WEIGHTS_SEED))
        engine = BatchInferenceEngine.from_head(head)
        pool = self._harvest(seed)
        state = {"head": head, "engine": engine, "pool": pool,
                 "loop": asyncio.SelectorEventLoop(_IdleSelector())}
        state["loop"].run_until_complete(
            self._load(state, WARMUP_SEED, self.warmup_s))
        return state

    def close(self, state: dict) -> None:
        loop = state["loop"]
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    def _harvest(self, seed: int) -> list:
        """``pool_size`` perception graphs from seeded scaled episodes.

        IDM-LC drives; no predictor runs, since only the graphs are kept.
        """
        scaled = HEADConfig().scaled()
        env = DrivingEnv(EnhancedPerception(predictor=None),
                         road=Road(length=scaled.road_length,
                                   num_lanes=scaled.num_lanes),
                         density_per_km=scaled.density_per_km,
                         max_steps=scaled.max_episode_steps)
        rule = IDMLCPolicy()
        graphs = []
        episode_seed = seed * SEED_STRIDE + HARVEST_OFFSET
        while len(graphs) < self.pool_size:
            obs = env.reset(episode_seed)
            episode_seed += 1
            rule.begin_episode()
            done = False
            while not done and len(graphs) < self.pool_size:
                graphs.append(env.frame.graph)
                obs, _, done, _ = env.step(rule.select_action(env, obs))
        return graphs

    def _schedule(self, stream_seed: int, duration: float, pool: list):
        """Poisson arrivals conditioned on their count: sorted uniforms.

        Fixing the count at ``rate * duration`` keeps the offered load
        identical across seeds while the gaps stay exponential-like.
        Each request gets its own graph object (sharing the pool's
        arrays) so a request can be recognised inside the engine.
        """
        rng = default_generator(stream_seed)
        count = int(self.rate * duration)
        offsets = np.sort(rng.uniform(0.0, duration, size=count))
        picks = rng.integers(0, len(pool), size=count)
        return offsets, [dataclasses.replace(pool[int(p)]) for p in picks]

    async def _load(self, state: dict, stream_seed: int, duration: float,
                    tracer=None) -> dict:
        offsets, graphs = self._schedule(stream_seed, duration, state["pool"])
        server = InferenceServer(state["engine"], ServerConfig(
            batcher=BatcherConfig(max_batch=32, batch_window=0.002,
                                  capacity=256),
            handler_timeout=2.0))
        client = ServeClient(server, ClientConfig(timeout=2.0, max_attempts=1),
                             seed=stream_seed)
        await server.start()
        clock = time.perf_counter
        replies = [0.0] * len(graphs)
        late = [0.0] * len(graphs)

        async def one(index: int):
            response = await client.infer(graphs[index])
            replies[index] = clock()
            return response

        tasks = []
        start = clock()
        for index, offset in enumerate(offsets):
            delay = start + offset - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late[index] = clock() - (start + offset)
            if tracer is not None:
                tracer.context = index
            tasks.append(asyncio.create_task(one(index)))
        responses = list(await asyncio.gather(*tasks))
        end = clock()
        await server.stop()
        return {"start": start, "end": end, "offsets": offsets,
                "graphs": graphs, "replies": replies, "late": late,
                "responses": responses, "server": server}

    def run(self, state: dict, seed: int, seconds: float, tracer=None) -> Run:
        out = state["loop"].run_until_complete(
            self._load(state, seed * SEED_STRIDE, seconds, tracer))
        run = Run(wall_s=out["end"] - out["start"])
        responses = out["responses"]
        latency = [reply - (out["start"] + offset)
                   for reply, offset in zip(out["replies"], out["offsets"])]
        run.attempted = len(responses)
        answered = [r.verdict.has_action and lat <= self.latency_limit_s
                    for r, lat in zip(responses, latency)]
        run.failed = answered.count(False)
        run.av_steps = answered.count(True)
        run.decide_s = [lat for lat, ok in zip(latency, answered) if ok]
        run.step_s = [r.latency for r, ok in zip(responses, answered) if ok]
        breaker = out["server"].breaker
        run.extra = {
            "graphs": out["graphs"],
            "offsets": out["offsets"], "start": out["start"],
            "late_max_s": max(out["late"], default=0.0),
            "shed": sum(1 for r in responses if r.verdict.is_shed),
            "errors": sum(1 for r in responses
                          if r.verdict in (Verdict.ERROR,
                                           Verdict.CLIENT_TIMEOUT)),
            "level_changes": breaker.trips + breaker.recoveries,
            "responses": responses,
        }
        return run

    def check(self, state: dict, run: Run) -> None:
        responses = run.extra["responses"]
        report = LoadReport(offered=run.attempted, responses=responses)
        try:
            report.check_invariants()
        except AssertionError as error:
            run.problems.append(f"load invariants: {error}")
        for response in responses:
            if not isinstance(response.verdict, Verdict):
                run.problems.append(f"untyped verdict {response.verdict!r}")
            elif response.verdict.has_action:
                action = response.action
                if (not isinstance(action.behavior, LaneBehavior)
                        or not math.isfinite(action.accel)
                        or abs(action.accel) > constants.A_MAX):
                    run.problems.append(
                        f"request {response.request_id}: bad action {action}")
        # Served numerics depend on how requests were batched, so the
        # digest pins the engine on the pool one graph at a time.
        engine = state["engine"]
        pool_actions = [engine.infer([graph], ServiceLevel.FULL_HEAD)[0]
                        for graph in state["pool"]]
        run.digest = run.pinned_digest = _digest(
            [(r.verdict.value, int(r.action.behavior), r.action.accel)
             for r in pool_actions])
        run.outputs = {"requests": run.attempted,
                       "verdicts": report.verdict_counts(),
                       "answered_in_limit": run.av_steps}


class _IdleSelector(selectors.DefaultSelector):
    """The event loop's selector; the tracer times its waits as idle."""


WORKLOADS = {workload.name: workload
             for workload in (EvalScaled(), FleetPaper(), TrainScaled(),
                              ServeOpen())}
