"""Host-speed reference for scaling times.

This host's speed drifts: the same work runs up to 30 % faster or slower
for seconds to minutes, in process CPU time as much as in wall time, so
raw times measure the host as much as the program. A run therefore
follows every timed phase (a mine, a validate, a CLI command, a set-up)
with a fixed reference workload, one unit per UNIT_EVERY_S of phase time
and at least one, and scales the phase to a host on which one unit takes
REFERENCE_UNIT_S:

    scaled time = raw time * REFERENCE_UNIT_S / (unit time just after)

The host's speed changes within a second, so the units measured right
after a phase track its speed better than a mean over the run: over
eight bank_large runs, the quartile spread of the median item was 15 %
raw, 6.7 % scaled by the run's mean unit time and 3.9 % scaled phase by
phase.

The unit is a small tree-walking interpreter over freshly allocated nodes
(dispatch on node type, string-keyed environments, set building), the
same kinds of work the ovlang interpreter and checker do, so that it
slows down and speeds up with them. It never calls ovlang: a change to
the program cannot change the reference.
"""
from __future__ import annotations

import gc
import time

REFERENCE_UNIT_S = 0.001
UNIT_EVERY_S = 0.025

_NAMES = tuple(f"v{i}" for i in range(16))


class _Num:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v


class _Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


def _build(i: int, depth: int):
    if depth == 0:
        return _Var(_NAMES[i % 16]) if i % 3 else _Num(i % 7)
    return _Bin("+-*"[i % 3], _build(2 * i + 1, depth - 1),
                _build(2 * i + 2, depth - 1))


def _eval(e, env: dict) -> int:
    if isinstance(e, _Num):
        return e.v
    if isinstance(e, _Var):
        return env[e.name]
    a = _eval(e.left, env)
    b = _eval(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    return a * b if a < 1000 else a - b


def unit() -> int:
    """One reference unit of work (about a millisecond on this host)."""
    total = 0
    seen: set = set()
    for r in range(8):
        env = {name: k + r for k, name in enumerate(_NAMES)}
        total += _eval(_build(r, 6), env)
        seen |= {k * r % 101 for k in range(40)}
    return total + len(seen)


class Speed:
    """Reference units run so far in this process and their time."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def sample(self, units: int) -> float:
        """Run `units` units; returns their slowdown against the reference
        (measured unit time over REFERENCE_UNIT_S). The collector is off
        meanwhile: garbage the timed phase left behind is collected in a
        timed phase, charged to the program, not to the host's speed."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(units):
                unit()
            spent = time.perf_counter() - t0
        finally:
            gc.enable()
        self.seconds += spent
        self.units += units
        return spent / units / REFERENCE_UNIT_S

    def after(self, work_s: float) -> float:
        """Sample in proportion to the work just timed."""
        return self.sample(max(1, round(work_s / UNIT_EVERY_S)))

    def slowdown(self) -> float:
        """Mean slowdown over every unit run so far."""
        return self.seconds / self.units / REFERENCE_UNIT_S

