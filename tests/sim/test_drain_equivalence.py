"""Drain-loop equivalence: every way of running a schedule pops one order.

:meth:`Environment.run` drains the schedule through one of two loops --
the inlined ``_drain`` loop (``step`` not overridden, the run stops at a
time; it calls a trace hook inline) or the generic ``step()`` loop (an
overridden ``step``, or a stop event).  Both must pop the exact global
``(time, priority, seq)`` order and hand a trace hook the same entries.
This file is the executable form of that promise: a randomized workload
mixing zero-delay triggers, far-future timers, priority interrupts,
detached timeouts and resource contention is run several ways, and the
processes' own ``(env.now, tag)`` logs -- and the traced entries --
must match entry for entry.
"""

import hashlib
import struct

import pytest

from repro.sim.engine import Environment, Interrupt
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource
from repro.sim.trace import _CHUNK_BYTES, EventTraceRecorder, RunDigest

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


def _no_step(self):
    raise AssertionError("a _drain run must not go through step()")


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_drain_hooks_see_the_step_loop_entries(seed, monkeypatch):
    # Reference: the step()-overriding subclass, which calls the hook
    # from step().
    stepped = EventTraceRecorder()
    stepped_log = _run(_SteppingEnvironment(trace=stepped), seed)

    function_entries: list = []

    def function_hook(when, priority, seq, event):
        function_entries.append((when, priority, seq, type(event).__name__))

    # Both hooked runs below must take the inlined _drain loop.
    monkeypatch.setattr(Environment, "step", _no_step)
    recorder = EventTraceRecorder()  # a callable object
    assert _run(Environment(trace=recorder), seed) == stepped_log
    assert _run(Environment(trace=function_hook), seed) == stepped_log

    assert any(priority == 0 for _w, priority, _s, _n in stepped.entries)
    assert recorder.entries == stepped.entries
    assert function_entries == stepped.entries


def _naive_digest(entries) -> str:
    """BLAKE2b-16 over each entry packed on its own (no buffering)."""
    digest = hashlib.blake2b(digest_size=16)
    for when, priority, seq, name in entries:
        digest.update(struct.pack("<dqq", when, priority, seq) + name.encode("ascii"))
    return digest.hexdigest()


def _run_several(env: Environment, seed: int) -> None:
    """Four workloads in one environment: a trace several chunks long."""
    log: list = []
    for k in range(4):
        _random_workload(env, seed + k, log)
    env.run(until=_UNTIL)


@pytest.mark.parametrize("seed", [3, 42, 2024])
def test_run_digest_matches_naive_reference(seed):
    recorder = EventTraceRecorder()
    _run_several(Environment(trace=recorder), seed)
    digest = RunDigest()
    _run_several(Environment(trace=digest), seed)
    entries = recorder.entries
    assert any(priority == 0 for _w, priority, _s, _n in entries)
    # Long enough that the digest folds several buffered chunks.
    assert len(entries) * 24 > 3 * _CHUNK_BYTES
    assert digest.events == len(entries)
    assert digest.hexdigest() == _naive_digest(entries)
