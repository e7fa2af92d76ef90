"""Drain-loop equivalence: every way of running a schedule pops one order.

:meth:`Environment.run` drains the schedule through one of two loops --
the inlined ``_drain`` fast path (no trace hook, ``step`` not
overridden, the run stops at a time) or the generic ``step()`` loop (a
trace hook, an overridden ``step``, or a stop event).  Both must pop the
exact global ``(time, priority, seq)`` order.  This file is the
executable form of that promise: a randomized workload mixing
zero-delay triggers, far-future timers, priority interrupts, detached
timeouts and resource contention is run four ways, and the processes'
own ``(env.now, tag)`` logs must match entry for entry.
"""

import pytest

from repro.sim.engine import Environment, Interrupt
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource
from repro.sim.trace import RunDigest

#: Simulated horizon of every run.
_UNTIL = 60.0

#: Delay quantum: most delays are multiples of it, so events collide.
_TICK = 0.125

#: Chunk boundaries for the chunked run: irregular, repeated, one at the
#: start time, and ending on the horizon.
_CHUNKS = (0.0, 0.1, 2.5, 2.5, 9.999, 17.0, 33.3, _UNTIL)


def _random_workload(env: Environment, seed: int, log: list) -> None:
    """A randomized mix that exercises every scheduling path.

    All randomness comes from named :class:`RandomStreams` streams keyed
    only by the seed, so two environments given the same seed issue the
    identical schedule.  Every process appends ``(env.now, tag)`` to
    ``log`` whenever it resumes.  Most delays are multiples of
    ``_TICK`` (exact in binary floating point), so many events collide
    at one instant and the order *within* an instant -- priority, then
    sequence number, across the now bucket and the heap -- shows in the
    log.
    """
    streams = RandomStreams(seed)
    resource = Resource(env, capacity=3)
    signals: list = []

    def burst(env, r, tag):
        # Mixed horizons: zero-delay (now bucket), near, and far future.
        for i in range(30):
            roll = r.random()
            if roll < 0.25:
                delay = 0.0
            elif roll < 0.6:
                delay = int(r.integers(1, 8)) * _TICK
            elif roll < 0.75:
                delay = r.random() * 0.5
            else:
                delay = int(r.integers(1, 320)) * _TICK
            yield env.timeout(delay)
            log.append((env.now, f"{tag}:{i}"))

    def contender(env, r, tag):
        for i in range(12):
            yield resource.acquire(priority=int(r.integers(3)))
            log.append((env.now, f"{tag}:acquire:{i}"))
            try:
                yield env.timeout(int(r.integers(3)) * _TICK)
            finally:
                resource.release()

    def listener(env, tag):
        # Woken by succeed() calls, i.e. through the now bucket.
        while True:
            signal = env.event()
            signals.append(signal)
            value = yield signal
            log.append((env.now, f"{tag}:{value}"))

    def sleeper(env, tag):
        # Interrupt target: its pending timeouts get detached mid-flight,
        # leaving callback-less entries to drain from the queue.
        while True:
            try:
                yield env.timeout(5.0)
                log.append((env.now, f"{tag}:woke"))
            except Interrupt as intr:
                log.append((env.now, f"{tag}:{intr.cause}"))

    def interrupter(env, victims, r):
        for i in range(8):
            yield env.timeout(int(r.integers(1, 24)) * _TICK)
            # Queue now-bucket wakeups first: the priority-0 interrupt
            # must still beat them.
            pending = signals[:]
            signals.clear()
            for signal in pending:
                signal.succeed(f"signal-{i}")
            victim = victims[int(r.integers(len(victims)))]
            if victim.is_alive:
                victim.interrupt(f"poke-{i}")

    victims = [env.process(sleeper(env, f"sleeper-{i}")) for i in range(3)]
    for i in range(2):
        env.process(listener(env, f"listener-{i}"))
    for i in range(6):
        env.process(burst(env, streams.stream(f"burst-{i}"), f"burst-{i}"))
    for i in range(4):
        env.process(
            contender(env, streams.stream(f"contender-{i}"), f"contender-{i}")
        )
    env.process(interrupter(env, victims, streams.stream("interrupter")))
    # Standing population of unconsumed far-future timeouts, some past
    # the horizon.
    standing = streams.stream("standing")
    for _ in range(200):
        env.timeout(standing.random() * 80.0)


class _SteppingEnvironment(Environment):
    """Overrides ``step`` so ``run`` must take the generic loop."""

    def step(self):
        super().step()


def _run(env: Environment, seed: int, chunks=(_UNTIL,)) -> list:
    log: list = []
    _random_workload(env, seed, log)
    for until in chunks:
        env.run(until=until)
    assert env.now == _UNTIL
    return log


@pytest.mark.parametrize("seed", [0, 7, 1234, 99991])
def test_all_drain_paths_pop_identically(seed):
    whole = _run(Environment(), seed)
    chunked = _run(Environment(), seed, chunks=_CHUNKS)
    traced = _run(Environment(trace=RunDigest()), seed)
    stepped = _run(_SteppingEnvironment(), seed)
    assert whole  # non-trivial run
    assert any("poke" in tag for _, tag in whole)  # interrupts landed
    assert chunked == whole
    assert traced == whole
    assert stepped == whole


def test_same_seed_traced_runs_share_a_digest():
    digests = []
    for _ in range(2):
        digest = RunDigest()
        _run(Environment(trace=digest), seed=21)
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
    other = RunDigest()
    _run(Environment(trace=other), seed=22)
    assert other.hexdigest() != digests[0]
