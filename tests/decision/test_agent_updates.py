"""Focused tests for the agents' learning mechanics."""

import numpy as np
import pytest

from repro.decision import (AugmentedState, DRLSCAgent, PDDPGAgent, PDQNAgent,
                            PQPAgent, Transition)
from repro.decision.drlsc import MANEUVERS
from repro.decision.pamdp import LaneBehavior


def make_state(rng):
    return AugmentedState(rng.standard_normal((7, 4)) * 0.3,
                          rng.standard_normal((6, 4)) * 0.3, np.ones(6))


def fill_buffer(agent, rng, count=64, reward=1.0):
    for _ in range(count):
        state = make_state(rng)
        action = agent.act(state, explore=True)
        aux = agent.last_aux() if hasattr(agent, "last_aux") else None
        agent.observe(Transition(state=state, behavior=int(action.behavior),
                                 accel=action.accel, reward=reward,
                                 next_state=make_state(rng), done=False, aux=aux))


class TestPDQNUpdates:
    def test_q_update_moves_toward_constant_reward(self):
        rng = np.random.default_rng(0)
        agent = PDQNAgent(branched=True, hidden_dim=16, warmup=32,
                          batch_size=32, gamma=0.0, rng=rng)
        fill_buffer(agent, rng, count=128, reward=2.0)
        first = None
        for _ in range(200):
            losses = agent.learn()
            first = first if first is not None else losses["q_loss"]
        assert losses["q_loss"] < first
        state = make_state(np.random.default_rng(1))
        _, q_values = agent.action_values(state)
        # With gamma=0 and constant reward 2, the Q of the most frequently
        # executed behavior (KEEP, due to the biased exploration prior)
        # must approach 2; rarely-taken behaviors converge more slowly.
        assert abs(q_values[2] - 2.0) < 0.75

    def test_x_update_runs_and_is_finite(self):
        rng = np.random.default_rng(0)
        agent = PDQNAgent(branched=False, hidden_dim=16, warmup=32,
                          batch_size=32, rng=rng)
        fill_buffer(agent, rng)
        losses = agent.learn()
        assert np.isfinite(losses["x_loss"])

    def test_target_networks_track_online(self):
        rng = np.random.default_rng(0)
        agent = PDQNAgent(branched=True, hidden_dim=16, warmup=16,
                          batch_size=16, tau=0.5, rng=rng)
        fill_buffer(agent, rng, count=32)
        before = agent.q_target.state_dict()
        agent.learn()
        after = agent.q_target.state_dict()
        changed = any(not np.allclose(before[key], after[key]) for key in before)
        assert changed

    def test_last_aux_records_executed_accel(self):
        rng = np.random.default_rng(0)
        agent = PDQNAgent(branched=True, hidden_dim=16, rng=rng)
        state = make_state(rng)
        action = agent.act(state, explore=True)
        aux = agent.last_aux()
        assert aux.shape == (3,)
        assert aux[int(action.behavior)] == pytest.approx(action.accel)


class TestPQPAlternation:
    def test_phases_alternate(self):
        rng = np.random.default_rng(0)
        agent = PQPAgent(hidden_dim=16, warmup=16, batch_size=16,
                         phase_length=1, rng=rng)
        fill_buffer(agent, rng, count=32)
        first = agent.learn()
        second = agent.learn()
        # phase_length=1: consecutive updates hit different networks.
        assert (first["q_loss"] != 0.0) != (second["q_loss"] != 0.0)

    def test_pqp_defaults_to_single_branch(self):
        agent = PQPAgent(hidden_dim=16, rng=np.random.default_rng(0))
        assert not agent.branched


class TestPDDPG:
    def test_action_decoding(self):
        rng = np.random.default_rng(0)
        agent = PDDPGAgent(hidden_dim=16, rng=rng)
        state = make_state(rng)
        action = agent.act(state, explore=False)
        raw = agent.last_aux()
        assert raw.shape == (6,)
        assert int(action.behavior) == int(np.argmax(raw[:3]))
        assert action.accel == pytest.approx(raw[3 + int(action.behavior)] * 3.0)

    def test_update_touches_both_networks(self):
        rng = np.random.default_rng(0)
        agent = PDDPGAgent(hidden_dim=16, warmup=16, batch_size=16, rng=rng)
        fill_buffer(agent, rng, count=32)
        actor_before = agent.actor.state_dict()
        critic_before = agent.critic.state_dict()
        agent.learn()
        assert any(not np.allclose(actor_before[key], value)
                   for key, value in agent.actor.state_dict().items())
        assert any(not np.allclose(critic_before[key], value)
                   for key, value in agent.critic.state_dict().items())


def _twin_update(build, frozen, trained):
    """Run one update on two identical agents, the second with the
    ``frozen`` network's freeze disabled (the unpruned tape)."""
    twins = []
    for _ in range(2):
        rng = np.random.default_rng(0)
        agent = build(rng)
        fill_buffer(agent, rng, count=32)
        twins.append(agent)
    pruned, unpruned = twins
    unfrozen = getattr(unpruned, frozen)
    unfrozen.requires_grad_ = lambda flag=True: unfrozen
    batch = pruned.buffer.sample(pruned.batch_size)
    pruned._update(batch)
    unpruned._update(batch)
    assert all(p.grad is None for p in getattr(pruned, frozen).parameters())
    assert any(p.grad is not None for p in unfrozen.parameters())
    for mine, theirs in zip(getattr(pruned, trained).parameters(),
                            getattr(unpruned, trained).parameters()):
        np.testing.assert_array_equal(mine.grad, theirs.grad)
    for name in (frozen, trained):
        np.testing.assert_array_equal(getattr(pruned, name).arena,
                                      getattr(unpruned, name).arena)


class TestFrozenCriticBackward:
    """The x/actor loss backpropagates through a frozen Q/critic: no
    Q-weight gradients, and bitwise the same x/actor gradients."""

    def test_pdqn_x_loss_leaves_q_without_grads(self):
        _twin_update(lambda rng: PDQNAgent(branched=True, hidden_dim=16, warmup=16,
                                           batch_size=16, rng=rng),
                     frozen="q_net", trained="x_net")

    def test_pddpg_actor_loss_leaves_critic_without_grads(self):
        _twin_update(lambda rng: PDDPGAgent(hidden_dim=16, warmup=16,
                                            batch_size=16, rng=rng),
                     frozen="critic", trained="actor")


class TestDRLSC:
    def test_maneuver_index_roundtrip(self):
        agent = DRLSCAgent(hidden_dim=8, rng=np.random.default_rng(0))
        for index, (behavior, accel) in enumerate(MANEUVERS):
            assert agent.maneuver_index(behavior, accel) == index

    def test_maneuver_index_snaps_to_nearest_level(self):
        agent = DRLSCAgent(hidden_dim=8, rng=np.random.default_rng(0))
        assert agent.maneuver_index(LaneBehavior.KEEP, 2.4) == \
            agent.maneuver_index(LaneBehavior.KEEP, 3.0)

    def test_update_converges_on_constant_reward(self):
        rng = np.random.default_rng(0)
        agent = DRLSCAgent(hidden_dim=16, warmup=32, batch_size=32,
                           gamma=0.0, rng=rng)
        fill_buffer(agent, rng, count=96, reward=-1.0)
        first = None
        for _ in range(200):
            losses = agent.learn()
            first = first if first is not None else losses["q_loss"]
        assert losses["q_loss"] < first
        import repro.nn as nn
        with nn.no_grad():
            values = agent.q_net(nn.Tensor(make_state(rng).current[None])).numpy()
        # The executed maneuvers' values head toward -1.
        assert abs(np.median(values) + 1.0) < 1.0
