"""Per-parameter optimizer loops: the reference for the arena optimizers.

These are the update rules ``repro.nn.optim`` applied one parameter at
a time before parameters were packed into module arenas.  The arena
versions must match them bit for bit (``test_arena.py``).
"""

from __future__ import annotations

import numpy as np


class ReferenceSGD:
    def __init__(self, parameters, lr=0.01, momentum=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += parameter.grad
                parameter.data -= self.lr * velocity
            else:
                parameter.data -= self.lr * parameter.grad


class ReferenceAdam:
    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_clip_grad_norm(parameters, max_norm):
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total
