"""Gradient-based optimizers.

Adam is the paper's optimizer for both LST-GAT (lr 1e-3, batch 64) and
BP-DQN; SGD is provided for tests and ablations.

All three entry points work on the gradient runs of
:func:`repro.nn.module.gradient_runs`: maximal sequences of adjacent
arena parameters that have gradients, updated by whole-buffer numpy ops
over flat slices of the data, gradient and optimizer-state buffers.  A
parameter outside any arena is a run of its own.  Every op is
elementwise with the same expression a per-parameter update uses, so
the result is bitwise the same whatever the grouping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import GradRun, Parameter, gradient_runs

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimizer over a list of parameters.

    Per-parameter state (Adam's moments, SGD's velocity) lives in flat
    buffers laid out in parameter order, with a shaped view of each
    buffer per parameter.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self._offsets = [0]
        for parameter in self.parameters:
            self._offsets.append(self._offsets[-1] + parameter.data.size)

    def _state(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """A zeroed flat state buffer and its per-parameter views."""
        flat = np.zeros(self._offsets[-1])
        views = [flat[low:high].reshape(parameter.data.shape)
                 for parameter, low, high in zip(self.parameters, self._offsets,
                                                 self._offsets[1:])]
        return flat, views

    def _run_state(self, flat: np.ndarray, views: list[np.ndarray],
                   run: GradRun) -> np.ndarray:
        first, stop, _, _, is_flat = run
        if is_flat:
            return flat[self._offsets[first]:self._offsets[stop]]
        return views[first]

    def zero_grad(self) -> None:
        """Clear gradient buffers of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.01,
                 momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity_flat, self._velocity = self._state()

    def step(self) -> None:
        """Apply one update; parameters without gradients are skipped."""
        for run in gradient_runs(self.parameters):
            data, grad = run[2], run[3]
            if self.momentum:
                velocity = self._run_state(self._velocity_flat, self._velocity, run)
                velocity *= self.momentum
                velocity += grad
                data -= self.lr * velocity
            else:
                data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba 2014) with bias correction."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m_flat, self._m = self._state()
        self._v_flat, self._v = self._state()

    def step(self) -> None:
        """Apply one Adam update; parameters without gradients are skipped."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for run in gradient_runs(self.parameters):
            data, grad = run[2], run[3]
            m = self._run_state(self._m_flat, self._m, run)
            v = self._run_state(self._v_flat, self._v, run)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.  Keeps RL training stable when TD
    errors spike early in training.  The squared norm is summed per
    parameter, in parameter order, exactly as a per-parameter loop would.
    """
    parameters = list(parameters)
    runs = gradient_runs(parameters)
    if not runs:
        return 0.0
    partials: list[float] = []
    for first, stop, _, grad, is_flat in runs:
        squares = grad * grad
        if not is_flat:
            partials.append(float(squares.sum()))
            continue
        low = 0
        for parameter in parameters[first:stop]:
            high = low + parameter.data.size
            partials.append(float(squares[low:high].sum()))
            low = high
    total = float(np.sqrt(sum(partials)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for _, _, _, grad, _ in runs:
            grad *= scale
    return total
