"""Discrete-event simulation engine.

This module is the foundation of the cluster substrate: a small,
self-contained discrete-event kernel in the style of SimPy.  Processes are
Python generators that ``yield`` events; the environment resumes a process
when the event it waits on fires.  The engine provides:

* :class:`Environment` -- the event loop and simulation clock.
* :class:`Event` -- a one-shot occurrence that processes can wait on.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- a running generator, itself awaitable as an event.
* :class:`AnyOf` / :class:`AllOf` -- condition events over several events.
* :class:`Interrupt` -- exception thrown into a process by another process.

The engine is deterministic: events scheduled at the same simulated time
fire in scheduling order (a monotonically increasing sequence number breaks
ties), so runs with the same seed are exactly reproducible.

Performance notes: this kernel is the hot path of every experiment --
a full-scale deployment run spends nearly all of its wall-clock here --
so the implementation trades a little prose for speed.  All event classes
use ``__slots__``; the succeed/schedule path is inlined (one attribute
chase and one queue append instead of nested method calls); processes
cache their generator's bound ``send``/``throw`` and their own ``_resume``
callback instead of recreating bound methods per wait.

The schedule logically holds ``(time, priority, seq, event)`` entries
and pops them in ascending order.  It is stored in two levels:

* The *now bucket* takes events triggered at the current time with the
  default priority -- ``succeed``, ``fail``, process bootstraps,
  zero-delay timeouts, roughly half of all events in RPC-heavy runs.
  Time never goes backwards and the sequence number only grows, so every
  pending entry provably has ``time == now`` and ``priority == 1``; the
  bucket stores just a deque of sequence numbers and a parallel deque of
  events, with no tuple per entry.
* A binary heap (``heapq``) takes everything else: positive-delay
  timeouts and priority-0 interrupts.

Each pop takes the smaller of the two fronts, so the global order is the
exact ``(time, priority, seq)`` order.  Deployments keep a few dozen
events pending at most, where heapq's C sift is as cheap as a queue can
be (docs/performance.md).  :meth:`Environment.run` drains the schedule
with one inlined loop (:meth:`Environment._drain`), traced or not: a
trace hook is called inline from it.  Only an overridden ``step`` or a
run that stops on an event use a :meth:`Environment.step` loop.  Both
pop the same order; the same-seed byte-identical trace regression in
``tests/sim/test_determinism.py`` and the drain-loop equivalence suite in
``tests/sim/test_drain_equivalence.py`` pin the contract.  Benchmarked by
``benchmarks/perf/bench_engine.py`` (results in ``BENCH_engine.json``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator, Iterable
from heapq import heappop as _heappop, heappush as _heappush
from types import FunctionType
from typing import Any, Callable

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* the event: it is placed on the environment's queue and its
    callbacks run at the current simulation time.  A process waits on an
    event by yielding it from its generator.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._ok = True
        self._state = _PENDING
        #: Failure value consumed flag -- an unhandled failed event is an
        #: error surfaced by :meth:`Environment.step`.
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (result or failure exception)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        # Triggered at the current time with default priority: the now
        # bucket stays (time, priority, seq)-sorted by construction, and
        # time/priority are implied (now, 1), so only seq and the event
        # itself are stored.
        env._fseq_app(seq)
        env._fev_app(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        env._fseq_app(seq)
        env._fev_app(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: run at once (still at current sim time).
            callback(self)
        else:
            callbacks.append(callback)

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # ``not >=`` also rejects NaN, which would corrupt the heap order.
        if not delay >= 0:
            raise SimulationError(
                f"negative timeout delay: {delay}"
                if delay < 0
                else f"NaN timeout delay: {delay}"
            )
        # Inlined Event.__init__ plus scheduling: timeouts are by far the
        # most frequently created event, so the constructor chain matters.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        now = env._now
        when = now + delay
        if when == now:
            # Fires at the current time (zero delay, or a delay so small
            # it underflows the float add): now bucket.  Identical global
            # order either way -- at equal (time, priority) the pop
            # compares sequence numbers regardless of the level.
            env._fseq_app(seq)
            env._fev_app(self)
        else:
            _heappush(env._queue, (when, 1, seq, self))


class _ConditionValue(dict):
    """Mapping of event -> value for fired events of a condition."""


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired: list[Event] = []
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            event._add_callback(self._on_fire)
        if not self._events and self._state == _PENDING:
            self.succeed(_ConditionValue())

    def _on_fire(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._fired.append(event)
        if self._satisfied():
            fired = set(map(id, self._fired))
            value = _ConditionValue()
            for ev in self._events:
                if id(ev) in fired:
                    value[ev] = ev._value
            self.succeed(value)

    def _satisfied(self) -> bool:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when at least one of the given events has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) >= 1


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) == len(self._events)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that fires with the generator's return
    value when it finishes, so processes can wait for each other::

        def child(env):
            yield env.timeout(5)
            return "done"

        def parent(env):
            result = yield env.process(child(env))
    """

    __slots__ = ("_generator", "_target", "_send", "_throw", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        # Bound methods are cached once: creating them per resume/wait is
        # a measurable cost at millions of events per run.
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(f"{generator!r} is not a generator") from None
        # Event.__init__ inlined: one process starts per service hop.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        self._defused = False
        self._generator = generator
        self._target: Event | None = None
        self._resume_cb = resume = self._resume
        # Bootstrap: resume the process at the current time.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [resume]
        init._value = None
        init._ok = True
        init._state = _TRIGGERED
        init._defused = False
        env._seq = seq = env._seq + 1
        env._fseq_app(seq)
        env._fev_app(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._state != _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        env = self.env
        interrupt_event = Event(env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event._state = _TRIGGERED
        env._seq = seq = env._seq + 1
        # Priority 0 beats every same-time event: interrupts go to the
        # heap, never the priority-1 now bucket.
        _heappush(env._queue, (env._now, 0, seq, interrupt_event))
        interrupt_event.callbacks.append(self._resume_cb)

    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:
            return  # process already finished (e.g. interrupt raced finish)
        env = self.env
        # Detach from the previous target if we were interrupted away.
        target = self._target
        if target is not None and target is not event:
            target_callbacks = target.callbacks
            if target_callbacks is not None:
                try:
                    target_callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        self._target = None
        env._active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self.fail(exc)
                return
            # Only Event subclasses carry a `callbacks` slot, so the
            # attribute probe doubles as the is-this-an-event check without
            # paying for isinstance() on every yield.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                env._active_process = None
                self.fail(
                    SimulationError(
                        f"process yielded a non-event: {next_event!r}"
                    )
                )
                return
            # Fast path: an already-processed event (callbacks handed out
            # and discarded) resumes the generator immediately with its
            # value, without a queue round-trip.
            if callbacks is None:
                event = next_event
                continue
            # Event still pending or triggered-not-processed: wait.
            self._target = next_event
            callbacks.append(self._resume_cb)
            env._active_process = None
            return


class Environment:
    """The simulation environment: clock plus event queue.

    Typical use::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=100.0)

    The schedule is the two-level queue described in the module
    docstring: a now bucket for current-time default-priority triggers
    and a binary heap for future events and interrupts.  ``trace``
    installs an event-trace hook (see :attr:`trace`).
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        trace: Callable[[float, int, int, Event], None] | None = None,
    ) -> None:
        self._now = float(initial_time)
        #: Future events (positive-delay timeouts) and priority-0
        #: interrupts, as a heapq of (time, priority, seq, event).
        self._queue: list[tuple[float, int, int, Event]] = []
        #: The "now bucket" as a flat structure of arrays: every pending
        #: entry provably has ``time == self._now`` and ``priority == 1``
        #: (time never decreases; only current-time default-priority
        #: triggers land here), so of the four logical columns only seq
        #: and the event are stored.  Appending keeps both deques
        #: (time, priority, seq)-sorted for free because seq increases
        #: monotonically.
        self._fifo_seq: deque[int] = deque()
        self._fifo_ev: deque[Event] = deque()
        #: Cached bound appends -- the two hottest calls in the kernel
        #: (every succeed/fail/grant/bootstrap goes through them).
        self._fseq_app = self._fifo_seq.append
        self._fev_app = self._fifo_ev.append
        self._seq = 0
        self._active_process: Process | None = None
        #: Optional event-trace hook: called as ``trace(when, priority,
        #: seq, event)`` for every event popped off the schedule, *before*
        #: its callbacks run.  ``None`` (the default) costs one ``is not
        #: None`` check per event in :meth:`_drain`.  See
        #: :mod:`repro.sim.trace` for ready-made hooks (event recorders,
        #: run digests).
        self._trace = trace

    @property
    def trace(self) -> Callable[[float, int, int, Event], None] | None:
        """The installed event-trace callback, if any."""
        return self._trace

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event firing at absolute simulated time ``when``.

        Equivalent to ``timeout(when - now)`` except that the fire time
        is exactly ``when``: no ``now + (when - now)`` float round trip.
        Batch-generating processes (the workload layer pre-computes
        arrival times far ahead of the clock) use this to wake at
        precomputed times bit-for-bit.
        """
        now = self._now
        if not when >= now:  # also rejects NaN
            raise SimulationError(
                f"timeout_at({when}) is in the past or NaN (now={now})"
            )
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._state = _TRIGGERED
        timeout._defused = False
        timeout.delay = when - now
        self._seq = seq = self._seq + 1
        if when == now:
            self._fseq_app(seq)
            self._fev_app(timeout)
        else:
            _heappush(self._queue, (when, 1, seq, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        # Now-bucket entries are by construction at the current time,
        # which lower-bounds every heap entry.
        if self._fifo_seq:
            return self._now
        if self._queue:
            return self._queue[0][0]
        return float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        Raises the failure exception of any failed event that no process
        handled (mirroring SimPy's "dead process" detection), so bugs do not
        silently vanish.
        """
        fseq = self._fifo_seq
        queue = self._queue
        # The now bucket's front materializes as a 3-tuple: sequence
        # numbers are unique, so the comparison against a 4-tuple heap
        # entry is always decided by index <= 2.
        if fseq and not (queue and queue[0] < (self._now, 1, fseq[0])):
            when, priority, seq = self._now, 1, fseq.popleft()
            event = self._fifo_ev.popleft()
        elif queue:
            when, priority, seq, event = _heappop(queue)
            self._now = when
        else:
            raise SimulationError("step() on an empty schedule")
        if self._trace is not None:
            self._trace(when, priority, seq, event)
        callbacks = event.callbacks
        event.callbacks = None
        event._state = _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be a simulation time (run to that time), an
        :class:`Event` (run until it fires and return its value), or ``None``
        (run until no events remain).

        With an event, the schedule may drain before the event ever
        triggers (no process can fire it any more); that is reported as a
        :class:`SimulationError` rather than returning silently.

        A time (or ``None``) drains through the inlined :meth:`_drain`
        loop, traced or not.  An overridden ``step`` or a stop event use
        the generic :meth:`step` loop instead.  Both pop the exact same
        global ``(time, priority, seq)`` order.
        """
        stop: Event | None = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if not horizon >= self._now:  # also rejects NaN
                raise SimulationError(
                    f"run(until={horizon}) is in the past or NaN (now={self._now})"
                )
        if stop is None and type(self).step is Environment.step:
            self._drain(horizon)
        else:
            step = self.step
            fseq = self._fifo_seq
            queue = self._queue
            while fseq or queue:
                if stop is not None and stop._state == _PROCESSED:
                    break
                if not fseq and queue[0][0] > horizon:
                    break
                step()
        if stop is not None:
            if stop._state == _PENDING:
                raise SimulationError(
                    "run(until=event): schedule drained but the event never fired"
                )
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None:
            self._now = horizon
        return None

    def _drain(self, horizon: float) -> None:
        """Process every event up to ``horizon``: :meth:`step` inlined.

        One Python method call per event is measurable at the
        millions-of-events scale of a deployment run, so the body is
        :meth:`step` minus the empty-schedule guard (the loop condition
        establishes it).  The trace hook, if any, is called inline with
        the same arguments :meth:`step` passes.
        """
        trace = self._trace
        if isinstance(getattr(type(trace), "__call__", None), FunctionType):
            # A callable object: its bound ``__call__`` skips the
            # instance-call slot on every event.
            trace = trace.__call__
        queue = self._queue
        fseq = self._fifo_seq
        fev = self._fifo_ev
        fseq_pop = fseq.popleft
        fev_pop = fev.popleft
        now = self._now
        # Now-bucket entries are always at the current time, which never
        # exceeds an un-reached horizon, so only the heap front needs the
        # horizon comparison.
        while fseq or (queue and queue[0][0] <= horizon):
            # The heap front wins over a non-empty now bucket only at the
            # current time with a beating priority or an earlier seq
            # (now-bucket entries are always (now, 1, seq)).
            if fseq and not (
                queue
                and (head := queue[0])[0] == now
                and (head[1] == 0 or (head[1] == 1 and head[2] < fseq[0]))
            ):
                seq = fseq_pop()
                event = fev_pop()
                if trace is not None:
                    trace(now, 1, seq, event)
            else:
                when, priority, seq, event = _heappop(queue)
                self._now = now = when
                if trace is not None:
                    trace(when, priority, seq, event)
            callbacks = event.callbacks
            event.callbacks = None
            event._state = _PROCESSED
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                exc = event._value
                raise exc if isinstance(exc, BaseException) else (
                    SimulationError(repr(exc))
                )
