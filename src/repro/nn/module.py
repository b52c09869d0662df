"""Module system: parameter containers with state-dict serialization.

Mirrors the small subset of ``torch.nn.Module`` the paper's models rely
on: recursive parameter discovery, train/eval flags, state dicts, and
parameter copying (used for target networks and soft updates).

Parameter layout
----------------
When a module's construction finishes, its parameters are packed into
one contiguous float64 buffer, the **arena**: every ``Parameter.data``
becomes a view into it, in :meth:`Module.parameters` order, and every
descendant module's arena is the slice holding its own parameters.  A
second buffer of the same layout receives gradients: backward copies a
parameter's first gradient into its slot there instead of allocating
one.  Whole-network work then runs as a few numpy calls over a buffer
instead of a loop over small arrays: :meth:`Module.soft_update_from`,
:meth:`Module.copy_from`, the flat snapshot helpers of
:mod:`repro.nn.serialization`, and the optimizers of
:mod:`repro.nn.optim`, which update maximal runs of adjacent
parameters that have gradients.

Writes into parameters must therefore be in place
(``parameter.data[...] = value``).  A parameter whose ``data`` was
rebound to another array is copied back into its slot (and re-viewed)
by the next whole-module operation; until then the optimizers update
it on its own.  Parameters are registered during construction: one
added to a module afterwards is outside the arena.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Parameter", "gradient_runs"]


class _ArenaSlot:
    """Where one parameter lives in its module tree's arena.

    ``data``/``grad`` are the parameter-shaped views into the data and
    gradient arenas; ``start:stop`` is their range in both.
    """

    __slots__ = ("data", "grad", "data_arena", "grad_arena", "start", "stop")

    def __init__(self, data_arena: np.ndarray, grad_arena: np.ndarray,
                 start: int, stop: int, shape: tuple[int, ...]) -> None:
        self.data_arena = data_arena
        self.grad_arena = grad_arena
        self.start = start
        self.stop = stop
        self.data = data_arena[start:stop].reshape(shape)
        self.grad = grad_arena[start:stop].reshape(shape)


class _ModuleArena:
    """A module's slice of its tree's arena, with the parameters in it.

    ``views`` holds each parameter's expected ``data`` view, so a
    parameter rebound elsewhere can be found and re-adopted.  Kept in
    one object rather than in list attributes, which parameter
    discovery would walk.
    """

    __slots__ = ("data", "parameters", "views", "layout")

    def __init__(self, data: np.ndarray, parameters: list["Parameter"]) -> None:
        self.data = data
        self.parameters = parameters
        self.views = [parameter.data for parameter in parameters]
        self.layout = tuple(view.shape for view in self.views)

    def adopt_rebound(self) -> np.ndarray:
        """Copy parameters rebound to other arrays back in; return ``data``."""
        for parameter, view in zip(self.parameters, self.views):
            if parameter.data is not view:
                view[...] = parameter.data
                parameter.data = view
        return self.data


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by modules.

    Once packed into a module's arena, ``_slot`` is its :class:`_ArenaSlot`.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


#: ``(first, stop, data, grad, flat)``: ``parameters[first:stop]`` with
#: their data and gradients as flat arena slices (``flat``), or one
#: parameter outside any arena with its own arrays.
GradRun = tuple[int, int, np.ndarray, np.ndarray, bool]


def gradient_runs(parameters: Sequence[Parameter]) -> list[GradRun]:
    """Group the parameters that have gradients into maximal runs.

    A run is a sequence of adjacent parameters whose data and gradients
    both sit in their slots of one arena, so one slice of each arena
    covers them all.  A grad-less parameter ends a run; a parameter
    with a gradient outside its slot (or no slot) is a run of its own.
    """
    runs: list[GradRun] = []
    first = -1          # first index of the open arena run, -1 if none
    arena = None        # its gradient arena
    stop = 0            # its end offset in that arena
    for index, parameter in enumerate(parameters):
        grad = parameter.grad
        slot = parameter._slot if grad is not None else None
        if slot is not None and grad is slot.grad and parameter.data is slot.data:
            if first >= 0 and slot.grad_arena is arena and slot.start == stop:
                stop = slot.stop
                continue
            if first >= 0:
                runs.append(_arena_run(parameters, first, index, stop))
            first, arena, stop = index, slot.grad_arena, slot.stop
            continue
        if first >= 0:
            runs.append(_arena_run(parameters, first, index, stop))
            first = -1
        if grad is not None:
            runs.append((index, index + 1, parameter.data, grad, False))
    if first >= 0:
        runs.append(_arena_run(parameters, first, len(parameters), stop))
    return runs


def _arena_run(parameters: Sequence[Parameter], first: int, end: int,
               stop: int) -> GradRun:
    slot = parameters[first]._slot
    return (first, end, slot.data_arena[slot.start:stop],
            slot.grad_arena[slot.start:stop], True)


class _ModuleMeta(type):
    """Packs a module's arena once its whole ``__init__`` has run."""

    def __call__(cls, *args, **kwargs):
        module = super().__call__(*args, **kwargs)
        module._pack()
        return module


class Module(metaclass=_ModuleMeta):
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered recursively for optimization and
    serialization.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{index}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters of this module tree.

        Same depth-first order as :meth:`named_parameters`, but without
        building dotted names -- this runs once per training step (via
        :meth:`zero_grad` and the optimizers), so it stays string-free.
        """
        found: list[Parameter] = []
        self._collect_parameters(found)
        return found

    def _collect_parameters(self, found: list["Parameter"]) -> None:
        for value in vars(self).values():
            if isinstance(value, Parameter):
                found.append(value)
            elif isinstance(value, Module):
                value._collect_parameters(found)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Parameter):
                        found.append(item)
                    elif isinstance(item, Module):
                        item._collect_parameters(found)

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # train / eval
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Put this module tree in training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put this module tree in inference mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Set ``requires_grad`` on every parameter; returns ``self``.

        A frozen module still propagates gradients to its inputs, but
        backward computes none for its own weights -- e.g. the Q network
        while the x network is trained through it (Eq. 23).  Covers the
        parameters in the arena, like every whole-module operation.
        """
        for parameter in self._arena.parameters:
            parameter.requires_grad = flag
        return self

    def num_parameters(self) -> int:
        """Return the total scalar parameter count."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------
    # arena
    # ------------------------------------------------------------------
    def _pack(self) -> None:
        """Lay this tree's parameters out in fresh data/gradient arenas.

        Runs when construction finishes (and after unpickling); every
        descendant module is handed the slice holding its parameters.
        """
        parameters = self.parameters()
        if len({id(parameter) for parameter in parameters}) != len(parameters):
            raise ValueError(
                f"{type(self).__name__} registers a parameter twice; an arena "
                f"holds each parameter once")
        bounds = [0]
        for parameter in parameters:
            bounds.append(bounds[-1] + parameter.data.size)
        data_arena = np.empty(bounds[-1])
        grad_arena = np.zeros(bounds[-1])
        position = {}
        for index, parameter in enumerate(parameters):
            slot = _ArenaSlot(data_arena, grad_arena, bounds[index],
                             bounds[index + 1], parameter.data.shape)
            slot.data[...] = parameter.data
            parameter.data = slot.data
            parameter._slot = slot
            position[id(parameter)] = index
        for module in self.modules():
            own = module.parameters()
            first = position[id(own[0])] if own else 0
            low, high = bounds[first], bounds[first + len(own)]
            module._arena = _ModuleArena(data_arena[low:high], own)

    @property
    def arena(self) -> np.ndarray:
        """This module's parameters as one flat float64 buffer (no copy).

        Every ``parameter.data`` is a view into it, so writing the
        buffer writes the parameters.  A parameter rebound to another
        array since the last access is copied back into its slot first.
        """
        return self._arena.adopt_rebound()

    def _paired_arenas(self, other: "Module") -> tuple[np.ndarray, np.ndarray]:
        """Both arenas, after checking they hold the same parameter shapes."""
        if self._arena.layout != other._arena.layout:
            raise ValueError(
                f"parameter layouts differ: {type(self).__name__} "
                f"{self._arena.layout} vs {type(other).__name__} "
                f"{other._arena.layout}")
        return self.arena, other.arena

    def __setstate__(self, state: dict) -> None:
        # Unpickled views no longer share their arena: lay it out again.
        # Children are restored before their parent, so the root's pack
        # runs last and owns the final layout.
        vars(self).update(state)
        self._pack()

    # ------------------------------------------------------------------
    # serialization and target-network support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name -> array snapshot of all parameters (copies)."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a snapshot produced by :meth:`state_dict`.

        Values are written in place, so the arena, optimizer state and
        any other view of the parameters stay valid.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        self._arena.adopt_rebound()
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {parameter.data.shape}")
            parameter.data[...] = value

    def copy_from(self, other: "Module") -> None:
        """Hard-copy all parameters from ``other`` (target network init)."""
        own, source = self._paired_arenas(other)
        np.copyto(own, source)

    def soft_update_from(self, other: "Module", tau: float) -> None:
        """Polyak-average parameters from ``other``: p <- tau*p_other + (1-tau)*p.

        Used by BP-DQN/P-DQN/P-DDPG target networks with the ratio 0.01
        from the paper's implementation details.  Two in-place ops over
        the arena; ``p*(1-tau) + tau*p_other`` rounds exactly like the
        formula above, since IEEE products and sums commute.
        """
        own, source = self._paired_arenas(other)
        own *= 1.0 - tau
        own += tau * source

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
