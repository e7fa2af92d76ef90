"""Batched thinning must be bit-identical to the per-candidate loop.

The generator's fast path scans ``batch_candidates`` candidates per
engine wake instead of scheduling a timeout per candidate.  The
determinism contract is exact equivalence, not statistical similarity:
both paths consume the same RNG stream in the same order, so the
accepted arrival *times*, the per-class counts, and the shedding
behaviour must match to the last bit -- only the rejected-candidate
engine events disappear.
"""

import pytest

from repro.sim.engine import Environment
from repro.sim.random import RandomStreams
from repro.workload.generator import LoadGenerator
from repro.workload.mixes import RequestMix
from repro.workload.patterns import ConstantLoad, DiurnalLoad


class RecordingApp:
    """Minimal Application stand-in: records submit times per class."""

    class _Spec:
        name = "recording"

    spec = _Spec()

    def __init__(self, env, classes=("req",), complete_after=None):
        self.env = env
        self.request_classes = dict.fromkeys(classes)
        self.submits = []
        #: None -> requests complete immediately; a float -> completion
        #: is delayed, so max_outstanding actually bites.
        self.complete_after = complete_after

    def submit(self, class_name):
        self.submits.append((self.env.now, class_name))
        done = self.env.event()
        if self.complete_after is None:
            done.succeed()
        else:
            def finish(ev, done=done):
                done.succeed()

            self.env.timeout(self.complete_after)._add_callback(finish)
        return None, done


def _run(pattern, batch_candidates, until=200.0, background_timers=0, **gen_kwargs):
    env = Environment()
    # Far-future timers that never fire before ``until``: they only widen
    # the pending set the generator's wake-ups are ordered against.
    for i in range(background_timers):
        env.timeout(1e6 + i)
    app = RecordingApp(env, complete_after=gen_kwargs.pop("complete_after", None))
    generator = LoadGenerator(
        app,
        pattern=pattern,
        mix=RequestMix({"req": 1.0}),
        streams=RandomStreams(42),
        batch_candidates=batch_candidates,
        **gen_kwargs,
    )
    generator.start()
    env.run(until=until)
    return app.submits, generator


@pytest.mark.parametrize(
    "pattern",
    [ConstantLoad(30.0), DiurnalLoad(5.0, 40.0, 60.0)],
    ids=["constant", "diurnal"],
)
def test_batched_arrivals_bit_identical_to_per_candidate(pattern):
    batched, gen_b = _run(pattern, batch_candidates=256)
    legacy, gen_l = _run(pattern, batch_candidates=1)
    assert batched == legacy  # exact float equality, same order
    assert gen_b.generated == gen_l.generated
    assert batched  # non-trivial run


def test_batched_arrivals_identical_on_calendar_queue():
    """Arrivals are unchanged by a pending set wider than the old calendar
    threshold (8,192 events); the engine now orders it all on one heap."""
    pattern = ConstantLoad(30.0)
    plain, _ = _run(pattern, batch_candidates=256)
    wide, _ = _run(pattern, batch_candidates=256, background_timers=10_000)
    legacy, _ = _run(pattern, batch_candidates=1, background_timers=10_000)
    assert plain == wide == legacy
    assert plain  # non-trivial run


def test_shedding_matches_under_max_outstanding():
    pattern = ConstantLoad(50.0)
    batched, gen_b = _run(
        pattern, 256, max_outstanding=3, complete_after=0.05
    )
    legacy, gen_l = _run(
        pattern, 1, max_outstanding=3, complete_after=0.05
    )
    assert batched == legacy
    assert gen_b.shed == gen_l.shed
    assert gen_b.shed > 0  # the cap actually engaged


def test_stop_at_terminates_identically():
    pattern = ConstantLoad(30.0)
    batched, _ = _run(pattern, 256, until=None, stop_at_s=50.0)
    legacy, _ = _run(pattern, 1, until=None, stop_at_s=50.0)
    assert batched == legacy
    assert all(t < 50.0 for t, _ in batched)


def test_batched_run_schedules_fewer_engine_events():
    pattern = DiurnalLoad(2.0, 40.0, 120.0)

    def events(batch_candidates):
        from repro.sim.trace import RunDigest

        env = Environment(trace=(digest := RunDigest()))
        app = RecordingApp(env)
        LoadGenerator(
            app,
            pattern=pattern,
            mix=RequestMix({"req": 1.0}),
            streams=RandomStreams(42),
            batch_candidates=batch_candidates,
        ).start()
        env.run(until=200.0)
        return digest.events, app.submits

    batched_events, batched_submits = events(256)
    legacy_events, legacy_submits = events(1)
    assert batched_submits == legacy_submits
    # The whole point of the fast path: rejected candidates cost no events.
    assert batched_events < legacy_events
