"""Participation game between edge devices sharing a size-dependent reward pool.

A joint outcome is a binary vector ``p`` over devices (1 = train this round).
The pool pays ``alpha * (1 - err_a * S**-err_b)`` where ``S`` is the total
data contributed by participants; each participant receives the pool times its
data share and pays a private cost ``beta * s + gamma * w``.

Outcome enumeration uses binary counting with device 0 as the least
significant bit: outcome index ``k`` has device ``i`` participating iff
``(k >> i) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, UsageError

# Exhaustive enumeration over 2**n outcomes; refuse above this by default.
DEFAULT_ENUMERATION_CAP = 20

Decision = tuple[int, ...]


@dataclass(frozen=True)
class DeviceProfile:
    """One edge device: its data size and private cost coefficients.

    Per-round cost when participating is ``beta * data_size + gamma * channel_cost``.
    """

    id: int
    data_size: float
    beta: float = 1e-3
    gamma: float = 1e-5
    channel_cost: float = 3.5e5

    def __post_init__(self):
        if self.data_size < 0:
            raise UsageError(f"device {self.id}: data_size must be >= 0")
        if self.beta <= 0:
            raise UsageError(f"device {self.id}: beta must be > 0")
        if self.gamma <= 0:
            raise UsageError(f"device {self.id}: gamma must be > 0")
        if self.channel_cost < 0:
            raise UsageError(f"device {self.id}: channel_cost must be >= 0")


@dataclass(frozen=True)
class GameParams:
    """Global constants of the participation game."""

    alpha: float = 10.0   # reward pool scale
    err_a: float = 13.2   # error-curve coefficient
    err_b: float = 0.7    # error-curve exponent
    delta: float = 1e-3   # share regularizer, 0 < delta << smallest positive size

    def __post_init__(self):
        if self.alpha <= 0:
            raise UsageError("alpha must be > 0")
        if self.err_a < 0 or self.err_b < 0:
            raise UsageError("err_a and err_b must be >= 0")
        if self.delta <= 0:
            raise UsageError("delta must be > 0")


def validate_devices(devices: Sequence[DeviceProfile]) -> None:
    ids = [d.id for d in devices]
    if len(set(ids)) != len(ids):
        raise UsageError("device ids must be unique within a game instance")


def validate_decision(p: Sequence[int], n: int) -> Decision:
    if len(p) != n:
        raise UsageError(f"decision vector has length {len(p)}, expected {n}")
    if any(v not in (0, 1) for v in p):
        raise UsageError("decision vector entries must be 0 or 1")
    return tuple(int(v) for v in p)


def decision_index(p: Sequence[int]) -> int:
    """Outcome index of a decision vector (device 0 = least significant bit)."""
    return sum(int(v) << i for i, v in enumerate(p))


def decision_from_index(index: int, n: int) -> Decision:
    if not 0 <= index < (1 << n):
        raise IndexError(f"outcome index {index} out of range for n={n}")
    return tuple((index >> i) & 1 for i in range(n))


def pool_payment(totals, game: GameParams) -> np.ndarray:
    """Reward pool ``alpha * (1 - err_a * S**-err_b)`` at each pooled data size S.

    S = 0 pays nothing.  The formula is not clamped, so a pool of scarce
    data goes negative.
    """
    totals = np.asarray(totals, dtype=float)
    has_data = totals > 0
    err = game.err_a * np.exp(-game.err_b * np.log(np.where(has_data, totals, 1.0)))
    return np.where(has_data, game.alpha * (1.0 - err), 0.0)


def device_profits(p: Sequence[int], devices: Sequence[DeviceProfile],
                   game: GameParams) -> np.ndarray:
    """Every device's profit at outcome ``p``: a participant's data share of
    the pool less its cost; 0 for a device that sits out.

    The arithmetic matches `profit_tensor` operation for operation, so row
    ``decision_index(p)`` of the tensor holds the same floats.
    """
    if len(p) != len(devices):
        raise UsageError("decision vector and device list lengths differ")
    # summed in device order, as the tensor's doubling sums them
    total = sum(d.data_size for pi, d in zip(p, devices) if pi)
    pool = pool_payment(total, game)
    out = np.zeros(len(devices))
    for i, (pi, d) in enumerate(zip(p, devices)):
        if pi:
            share = d.data_size / (game.delta + total) * pool if d.data_size > 0 else 0.0
            out[i] = share - (d.beta * d.data_size + d.gamma * d.channel_cost)
    return out


def total_profit(p: Sequence[int], devices: Sequence[DeviceProfile],
                 game: GameParams) -> float:
    """Sum of all device profits at outcome ``p`` (no enumeration involved)."""
    return sum(device_profits(p, devices, game).tolist())


def flip_pairs(values: np.ndarray, i: int) -> np.ndarray:
    """View of a per-outcome vector as (high bits, bit i, low bits).

    ``v[:, q, :]`` holds the outcomes with device i's bit equal to q, in
    canonical order, and ``v[:, 1 - q, :]`` their flips at the same places.
    Writing through the view writes ``values``.
    """
    return values.reshape(-1, 2, 1 << i)


def profit_tensor(devices: Sequence[DeviceProfile], game: GameParams,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """(2**n, n) table of device profits over every joint outcome.

    Row k equals ``device_profits(decision_from_index(k, n), ...)``.
    Built one device column at a time; besides the result it holds only a
    few per-outcome vectors.
    """
    validate_devices(devices)
    n = len(devices)
    if n > cap:
        raise CapacityError(f"n={n} exceeds enumeration cap {cap} (2**n outcomes)")
    if n == 0:
        return np.zeros((1, 0))

    sizes = [d.data_size for d in devices]
    # pooled data per outcome by doubling: outcomes [h, 2h) add device i,
    # whose bit is the highest one set
    totals = np.zeros(1 << n)
    for i, size in enumerate(sizes):
        h = 1 << i
        np.add(totals[:h], size, out=totals[h:2 * h])
    pool = pool_payment(totals, game)
    denom = game.delta + totals

    out = np.zeros((1 << n, n))
    for i, size in enumerate(sizes):
        joined = flip_pairs(out[:, i], i)[:, 1, :]
        if size > 0:
            np.divide(size, flip_pairs(denom, i)[:, 1, :], out=joined)
            joined *= flip_pairs(pool, i)[:, 1, :]
        d = devices[i]
        joined -= d.beta * d.data_size + d.gamma * d.channel_cost
    return out


def random_devices(n: int, seed: int,
                   size_choices: Sequence[float] = (50.0, 500.0),
                   probabilities: Sequence[float] | None = None,
                   **device_kwargs) -> list[DeviceProfile]:
    """n devices with sizes drawn from ``size_choices`` (equiprobable by default).

    Sizes come from the dedicated size stream of the seeded generator via
    inverse-CDF lookup, so draws are stable across platforms and runs.
    """
    from .rng import SIZE_STREAM, SplitMix64

    if n < 0:
        raise UsageError("n must be >= 0")
    if not size_choices:
        raise UsageError("size_choices must be nonempty")
    if probabilities is None:
        weights = np.full(len(size_choices), 1.0 / len(size_choices))
    else:
        weights = np.asarray(probabilities, dtype=float)
        if weights.shape != (len(size_choices),):
            raise UsageError("probabilities must match size_choices in length")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
            raise UsageError("probabilities must be nonnegative and sum to 1")
    cdf = np.cumsum(weights)
    gen = SplitMix64(seed ^ SIZE_STREAM)
    choices = list(size_choices)
    out = []
    for i in range(n):
        u = gen.uniform()
        k = min(int(np.searchsorted(cdf, u, side="right")), len(choices) - 1)
        out.append(DeviceProfile(id=i, data_size=float(choices[k]), **device_kwargs))
    return out
