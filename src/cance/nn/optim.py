"""Adam updates without weight decay (the class keeps the name AdamW), and the
epoch loop of every training stage."""

import logging

import numpy as np

from cance.errors import NonFiniteError, ShapeError
from cance.nn.layers import copy_state, write_state

log = logging.getLogger(__name__)


class AdamW:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float = 1e-4):
        self.lr = float(lr)
        self.step_count = 0
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]

    def step(self, params: list, grads: list) -> None:
        """One update; params are modified in place."""
        if len(params) != len(self._m) or len(grads) != len(self._m):
            raise ShapeError("optimizer was built for a different parameter list")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient passed to AdamW")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            if p.shape != g.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter {p.shape}")
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p -= self.lr * update


def fit_epochs(epochs, n, batch_size, rng, step, val_loss, state, losses,
               best_loss=np.inf):
    """Each epoch, run `step(epoch, rows)` on the `batch_size` slices of a
    permutation of `n` rows, then append `val_loss()` to `losses`.

    The arrays of `state` (name -> live array) are checkpointed at the lowest
    loss and written back in place at the end. A NonFiniteError in a step or
    in validation, or a non-finite loss, ends training with a warning; it
    raises only if no finite checkpoint exists. Returns (best_loss,
    best_epoch, diverged_at_epoch), each epoch None if there is none.
    """
    best, best_epoch, diverged_at = copy_state(state), None, None
    try:
        for epoch in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                step(epoch, order[start : start + batch_size])
            loss = val_loss()
            if not np.isfinite(loss):
                raise NonFiniteError(f"validation loss is {loss}")
            losses.append(loss)
            if loss < best_loss:
                best, best_loss, best_epoch = copy_state(state), loss, epoch
    except NonFiniteError as exc:
        log.warning("training diverged at epoch %d: %s", epoch, exc)
        diverged_at = epoch
    if diverged_at is not None and not np.isfinite(best_loss):
        raise NonFiniteError("training diverged before any finite checkpoint")
    write_state(state, best)
    return best_loss, best_epoch, diverged_at
