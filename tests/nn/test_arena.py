"""Module arenas: parameter layout and in-place restores."""

import copy

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, Tensor
from repro.nn.serialization import read_flat_parameters, write_flat_parameters


def _in_arena(module):
    return all(np.shares_memory(p.data, module.arena) for p in module.parameters())


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def test_parameters_are_views_of_one_arena_in_parameter_order():
    net = MLP([3, 5, 2], rng=np.random.default_rng(0))
    flat = np.concatenate([p.data.ravel() for p in net.parameters()])
    np.testing.assert_array_equal(net.arena, flat)
    assert net.arena.size == net.num_parameters()
    assert _in_arena(net)
    # a descendant's arena is its slice of the root's
    first = net.net.children_list[0]
    assert np.shares_memory(first.arena, net.arena)
    assert first.arena.size == first.num_parameters()


def test_backward_writes_parameter_gradients_into_the_gradient_arena():
    layer = Linear(3, 2, rng=np.random.default_rng(1))
    layer(Tensor(np.ones((4, 3)))).sum().backward()
    assert layer.weight.grad is layer.weight._slot.grad
    assert np.shares_memory(layer.weight._slot.grad_arena, layer.bias.grad)


def test_a_rebound_parameter_is_adopted_back_into_the_arena():
    layer = Linear(2, 2, rng=np.random.default_rng(2))
    replacement = np.full((2, 2), 3.0)
    layer.weight.data = replacement
    arena = layer.arena
    assert np.shares_memory(layer.weight.data, arena)
    np.testing.assert_array_equal(layer.weight.data, replacement)


def test_a_deep_copy_gets_its_own_arena():
    source = MLP([3, 4, 2], rng=np.random.default_rng(9))
    clone = copy.deepcopy(source)
    assert _in_arena(clone)
    assert not np.shares_memory(clone.arena, source.arena)
    clone.soft_update_from(source, tau=0.5)
    np.testing.assert_array_equal(clone.arena, source.arena)
    for layer in (clone.net.children_list[0], clone.net.children_list[2]):
        assert np.shares_memory(layer.arena, clone.arena)


def test_registering_a_parameter_twice_is_rejected():
    class Twice(Module):
        def __init__(self):
            super().__init__()
            self.layer = Linear(2, 2, rng=np.random.default_rng(3))
            self.again = [self.layer.weight]

    with pytest.raises(ValueError, match="twice"):
        Twice()


def test_layout_mismatch_is_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="layouts differ"):
        Linear(2, 3, rng=rng).copy_from(Linear(3, 2, rng=rng))


# ----------------------------------------------------------------------
# every restore writes in place
# ----------------------------------------------------------------------
def test_restores_keep_parameters_in_the_arena(tmp_path):
    from repro.decision import PDQNAgent
    from repro.faults import load_checkpoint, save_checkpoint

    rng = np.random.default_rng(5)
    source = MLP([3, 4, 2], rng=rng)
    target = MLP([3, 4, 2], rng=rng)

    target.copy_from(source)
    assert _in_arena(target)
    np.testing.assert_array_equal(target.arena, source.arena)

    source.arena[...] += 1.0
    target.load_state_dict(source.state_dict())
    assert _in_arena(target)
    np.testing.assert_array_equal(target.arena, source.arena)

    target.soft_update_from(MLP([3, 4, 2], rng=rng), tau=0.5)
    assert _in_arena(target)

    flat = np.empty(source.arena.size)
    write_flat_parameters([source], flat)
    read_flat_parameters([target], flat)
    assert _in_arena(target)
    np.testing.assert_array_equal(target.arena, source.arena)

    agent = PDQNAgent(hidden_dim=8, rng=np.random.default_rng(6))
    path = tmp_path / "agent.ckpt.npz"
    save_checkpoint(path, agent)
    restored = PDQNAgent(hidden_dim=8, rng=np.random.default_rng(7))
    moments = [m for m in restored.opt_q._m]
    load_checkpoint(path, restored)
    for name in ("x_net", "q_net", "x_target", "q_target"):
        module = getattr(restored, name)
        assert _in_arena(module), name
        np.testing.assert_array_equal(module.arena, getattr(agent, name).arena)
    assert all(a is b for a, b in zip(restored.opt_q._m, moments))
    assert all(np.shares_memory(m, restored.opt_q._m_flat) for m in restored.opt_q._m)


def test_soft_update_matches_the_polyak_formula_bitwise():
    rng = np.random.default_rng(8)
    source, target = MLP([4, 6, 3], rng=rng), MLP([4, 6, 3], rng=rng)
    tau = 0.01
    expected = [tau * s.data + (1.0 - tau) * t.data
                for s, t in zip(source.parameters(), target.parameters())]
    target.soft_update_from(source, tau)
    for parameter, value in zip(target.parameters(), expected):
        np.testing.assert_array_equal(parameter.data, value)
