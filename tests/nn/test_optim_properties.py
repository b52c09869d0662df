"""Property-based tests for the optimizers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Module, Parameter, SGD, Tensor, clip_grad_norm

from .optim_reference import ReferenceAdam, ReferenceSGD, reference_clip_grad_norm


@given(start=st.floats(-10.0, 10.0), lr=st.floats(0.01, 0.3))
@settings(max_examples=30, deadline=None)
def test_sgd_descends_quadratic(start, lr):
    """SGD on f(w) = w^2 never increases the objective (lr < 1)."""
    weight = Parameter(np.array([start]))
    optimizer = SGD([weight], lr=lr)
    previous = start ** 2
    for _ in range(20):
        optimizer.zero_grad()
        (weight ** 2).backward(np.ones(1))
        optimizer.step()
        current = float(weight.data[0] ** 2)
        assert current <= previous + 1e-9
        previous = current


@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_adam_first_step_magnitude_is_lr(seed):
    """Adam's bias-corrected first step has magnitude ~lr regardless of
    gradient scale -- the property that makes it robust to feature scale."""
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.01, 1000.0))
    weight = Parameter(np.array([1.0]))
    optimizer = Adam([weight], lr=0.1)
    weight.grad = np.array([scale])
    optimizer.step()
    assert abs(weight.data[0] - 1.0) == np.float64(0.1) or \
        abs(abs(weight.data[0] - 1.0) - 0.1) < 1e-6


@given(seed=st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_adam_converges_on_random_quadratic(seed):
    rng = np.random.default_rng(seed)
    target = rng.uniform(-3.0, 3.0, size=4)
    weight = Parameter(rng.uniform(-3.0, 3.0, size=4))
    optimizer = Adam([weight], lr=0.1)
    for _ in range(300):
        optimizer.zero_grad()
        diff = weight - Tensor(target)
        (diff * diff).sum().backward()
        optimizer.step()
    np.testing.assert_allclose(weight.data, target, atol=0.05)


def test_optimizers_skip_parameters_without_grads():
    used = Parameter(np.array([1.0]))
    unused = Parameter(np.array([5.0]))
    optimizer = Adam([used, unused], lr=0.1)
    used.grad = np.array([1.0])
    optimizer.step()
    assert unused.data[0] == 5.0
    assert used.data[0] != 1.0


class Bag(Module):
    """A flat list of parameters of the given shapes."""

    def __init__(self, shapes, rng):
        super().__init__()
        self.items = [Parameter(rng.standard_normal(shape)) for shape in shapes]


_shape = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.just(()),
)


@given(seed=st.integers(0, 2**31 - 1),
       shapes=st.lists(_shape, min_size=1, max_size=7),
       has_grad=st.lists(st.booleans(), min_size=7, max_size=7),
       loose=st.lists(st.booleans(), min_size=7, max_size=7),
       max_norm=st.sampled_from([1e-3, 0.5, 1e6]),
       kind=st.sampled_from(["adam", "sgd", "sgd-momentum"]),
       order=st.permutations(range(7)),
       drop=st.integers(-1, 6))
@settings(max_examples=80, deadline=None)
def test_arena_optimizers_match_per_parameter_loops(seed, shapes, has_grad, loose,
                                                    max_norm, kind, order, drop):
    """Runs split by grad-less parameters, by parameters outside any
    arena (``loose``: standalone, or an arena parameter given a gradient
    array of its own), by arena neighbours the optimizer does not hold
    (``drop``) and by list order that is not arena order, and update
    exactly like the per-parameter loops."""
    rng = np.random.default_rng(seed)
    bag = Bag(shapes, rng)
    extra = Parameter(rng.standard_normal(3))
    held = bag.parameters()
    if len(held) > 1 and drop < len(held):
        del held[drop]
    held = [held[i] for i in order if i < len(held)]
    params = held[:]
    params.insert(len(params) // 2, extra)
    reference = [Parameter(p.data.copy()) for p in params]
    if kind == "adam":
        optimizer, ref_optimizer = Adam(params, lr=0.05), ReferenceAdam(reference, lr=0.05)
    else:
        momentum = 0.9 if kind == "sgd-momentum" else 0.0
        optimizer = SGD(params, lr=0.05, momentum=momentum)
        ref_optimizer = ReferenceSGD(reference, lr=0.05, momentum=momentum)

    for _ in range(3):
        optimizer.zero_grad()
        loss, any_tape = Tensor(np.zeros(())), False
        for index, (param, ref) in enumerate(zip(params, reference)):
            ref.grad = None
            if not has_grad[index % 7]:
                continue
            coef = np.array(rng.standard_normal(param.data.shape) * 10.0)
            ref.grad = coef.copy()
            if loose[index % 7]:
                param.grad = coef.copy()
            else:
                loss = loss + (param * Tensor(coef)).sum()
                any_tape = True
        if any_tape:
            loss.backward()

        norm = clip_grad_norm(params, max_norm)
        ref_norm = reference_clip_grad_norm(reference, max_norm)
        assert norm.hex() == ref_norm.hex()
        for param, ref in zip(params, reference):
            if ref.grad is None:
                assert param.grad is None
            else:
                np.testing.assert_array_equal(param.grad, ref.grad)

        optimizer.step()
        ref_optimizer.step()
        for param, ref in zip(params, reference):
            np.testing.assert_array_equal(param.data, ref.data)
    assert all(np.shares_memory(p.data, bag.arena) for p in bag.parameters())
    if drop < len(shapes) and len(shapes) > 1:
        # the dropped neighbour was never touched
        np.testing.assert_array_equal(
            bag.parameters()[drop].data,
            Bag(shapes, np.random.default_rng(seed)).parameters()[drop].data)
