"""SGD with momentum, weight decay, and a step-decay learning-rate schedule.

A train call owns its optimizer state and is fully deterministic given the
hyperparameters: data order comes from (seed, epoch)-keyed permutations and
every update keeps pruned coordinates exactly zero. The returned record also
carries the rewind-point snapshot that iterative pruning restarts from.
The test set is a :class:`~prunescope.autodiff.LossContext` as well; the
record's ``test_acc`` evaluates it at the end of each epoch.

Each step takes its batch through :meth:`LossContext.rows`, which skips
re-validating rows of the already validated context, and differentiates it
with :func:`prunescope.autodiff.grad` into one
:class:`~prunescope.autodiff.Evaluator` per run, ``ctx.at(mask)``, so the
step's forward and backward passes write into the same buffers every time.
It then updates the velocity and the weights in place,
in two preallocated buffers. The in-place form keeps the plain update's
operations and their order, ``g + wd*w``, then ``mom*v + update``, then
``w - lr*v``, then ``w *= mask``, because floating-point results depend on
that order: reordering would change the trained weights, and with them every
checkpoint and analysis artifact. The masking multiplies by the evaluator's
float copy of the mask, which rounds exactly as the bool mask does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import LossContext
from .data import epoch_batches
from .errors import DivergenceError
from .model import apply_mask
from .numerics import RngStream

DIVERGENCE_CAP = 1e6

# stream_id role for minibatch shuffling (keyed further by epoch)
SHUFFLE_STREAM = 0x5487FF1E


@dataclass(frozen=True)
class Hyperparams:
    epochs: int
    batch_size: int
    lr0: float
    momentum: float
    weight_decay: float
    decay_epochs: tuple[int, ...]
    decay_factor: float
    rewind_step: int
    seed: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        de = tuple(int(e) for e in self.decay_epochs)
        if any(b >= self.epochs for b in de) or list(de) != sorted(set(de)):
            raise ValueError("decay_epochs must be strictly increasing and < epochs")
        if self.rewind_step < 0:
            raise ValueError("rewind_step must be nonnegative")
        object.__setattr__(self, "decay_epochs", de)


@dataclass
class TrainRecord:
    """Per-epoch metrics plus optional parameter snapshots."""

    train_loss: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)  # at each epoch's first step
    steps: int = 0
    epoch_params: list[np.ndarray] | None = None


def lr_at(hp: Hyperparams, step: int, steps_per_epoch: int) -> float:
    """Learning rate at a global optimizer step.

    The rate drops by decay_factor at the first step of each decay epoch, so
    it only depends on which epoch the step falls in.
    """
    epoch = step // steps_per_epoch
    passed = sum(1 for boundary in hp.decay_epochs if epoch >= boundary)
    return hp.lr0 * hp.decay_factor**passed


def train(
    ctx: LossContext,
    test: LossContext,
    start: np.ndarray,
    mask: np.ndarray,
    hp: Hyperparams,
    schedule_offset: int = 0,
    record_snapshots: bool = False,
) -> tuple[np.ndarray, np.ndarray, TrainRecord]:
    """Run SGD from ``start`` under ``mask``; returns (final, rewind, record).

    ``schedule_offset`` shifts the learning-rate schedule, which is how
    learning-rate rewinding and weight rewinding resume mid-schedule. The
    rewind snapshot is the parameter vector after ``hp.rewind_step`` steps
    (it equals the final vector when training ends first).
    """
    steps_per_epoch = math.ceil(ctx.n / hp.batch_size)
    ev = ctx.at(mask)
    mask = ev.mask
    w = apply_mask(start, mask)
    velocity = np.zeros_like(w)
    update = np.empty_like(w)
    shuffle = RngStream(hp.seed, SHUFFLE_STREAM)
    record = TrainRecord(epoch_params=[] if record_snapshots else None)
    rewind = w.copy() if hp.rewind_step == 0 else None
    step = 0

    for epoch in range(hp.epochs):
        loss_sum = 0.0
        for batch_idx in epoch_batches(ctx.n, hp.batch_size, epoch, shuffle):
            result = autodiff.grad(ctx.rows(batch_idx), w, ev)
            if not math.isfinite(result.loss) or result.loss > DIVERGENCE_CAP:
                raise DivergenceError(
                    f"training diverged at step {step} (loss={result.loss})", step
                )
            # update = g + wd*w; velocity = mom*velocity + update;
            # w = w - lr*velocity, evaluated in place
            np.multiply(w, hp.weight_decay, out=update)
            update += result.gradient
            velocity *= hp.momentum
            velocity += update
            np.multiply(velocity, lr_at(hp, schedule_offset + step, steps_per_epoch), out=update)
            w -= update
            w *= ev.keep  # pruned coordinates stay exactly zero
            step += 1
            loss_sum += result.loss * batch_idx.size
            if step == hp.rewind_step:
                rewind = w.copy()
        record.train_loss.append(loss_sum / ctx.n)
        record.test_acc.append(test.at(mask).accuracy(w))
        record.lr.append(
            lr_at(hp, schedule_offset + epoch * steps_per_epoch, steps_per_epoch)
        )
        if record.epoch_params is not None:
            record.epoch_params.append(w.copy())

    record.steps = step
    if rewind is None:
        rewind = w.copy()
    return w, rewind, record
