"""The machine's speed next to each timed piece of work.

The benchmark's host shares its cores with other tenants, and how fast a
core runs Python switches, every few seconds, between states up to 1.8
times apart, in CPU time as well as in wall time (a busy sibling thread
or a lower clock is not descheduling).  So the worker times
``reference_work`` right before and right after each item, and the item
process times it every ``EVERY_S`` of CPU time while the item runs.  A
sample over ``REFERENCE_S``, what the work takes on the VM the baseline
was measured on in its fast state, is a speed factor; the item's CPU time,
less the samples' own, is divided by the mean factor of its samples.  A
time in the result thus reads as CPU seconds on that VM in its fast state.
The deadline of an item is the workload's deadline times the factor of
the sample before it; an item stopped there counts with that factor.
Set-up is sampled the same way, every ``SETUP_EVERY_S``.  Traced runs take no samples during an
item, so that no span holds one.

On that VM, the median of one item over six processes spread by 13 %
(IQR over median) in raw CPU time and 2 % after division by the factor
of the samples before and after it; for a 0.6-s item, 16 % and 8 %.

The reference work multiplies small bivariate polynomials with rational
coefficients, the kind of arithmetic sgmc spends its time on; it does not
use sgmc, so a change to the program does not move the factor.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# CPU seconds of one reference_work() on the baseline VM in its fast state
REFERENCE_S = 0.0033
# a sample older than this (wall seconds) is not used as the next item's
# "before" sample
FRESH_S = 0.05
# user CPU seconds between two samples taken while an item runs, and while
# the worker sets up (set-up is short, and mostly imports, so it is
# sampled more densely)
EVERY_S = 0.1
SETUP_EVERY_S = 0.02


def reference_work(rounds=4):
    p = {(i, j): Fraction(i + 2 * j + 1, 3 * i + j + 7) for i in range(4) for j in range(4)}
    total = Fraction(0)
    for r in range(rounds):
        q = {}
        for (a, b), u in p.items():
            for (c, d), v in p.items():
                key = (a + c, b + d)
                q[key] = q.get(key, 0) + u * v
        total += sum(q.values()) / (r + 1)
    return total


def sample():
    """CPU seconds of one reference_work() on this thread."""
    tic = time.thread_time()
    reference_work()
    return time.thread_time() - tic


class Pacer:
    """Speed samples around consecutive items; one sample between two items
    serves as the first one's "after" and the next one's "before"."""

    def __init__(self):
        self.last = None
        self.at = None
        sample()  # warm-up

    def before(self):
        if self.last is None or time.perf_counter() - self.at > FRESH_S:
            self.after()
        return self.last / REFERENCE_S

    def after(self):
        self.last = sample()
        self.at = time.perf_counter()
        return self.last / REFERENCE_S


def stretch(factor):
    """How much longer a deadline must be to leave the item its time when
    a Sampler takes its share of the CPU."""
    return 1 / max(0.5, 1 - factor * REFERENCE_S / EVERY_S)


class Sampler:
    """Takes a sample every ``every`` seconds of user CPU time while
    entered, from a SIGVTALRM handler; ``spent`` is the CPU time the samples
    took."""

    def __init__(self, every=EVERY_S):
        self.every = every
        self.factors = []
        self.spent = 0.0

    def _take(self, _signum, _frame):
        seconds = sample()
        self.spent += seconds
        self.factors.append(seconds / REFERENCE_S)

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self._take)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every, self.every)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return False
