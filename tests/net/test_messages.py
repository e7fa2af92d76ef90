"""Tests for call trees, requests and message queues."""

import dataclasses
import pickle

import pytest

from repro.apps import (
    build_media_service_spec,
    build_social_network_spec,
    build_vanilla_social_network_spec,
    build_video_pipeline_spec,
)
from repro.errors import TopologyError
from repro.net.messages import Call, CallMode, Request
from repro.net.mq import MessageQueue
from repro.sim import Environment


def test_call_validation():
    with pytest.raises(TopologyError):
        Call("")
    with pytest.raises(TopologyError):
        Call("svc", repeat=0)


def test_call_services_preorder_with_duplicates():
    tree = Call("a", children=(Call("b", children=(Call("c"),)), Call("b")))
    assert tree.services() == ["a", "b", "c", "b"]


def test_call_walk_and_depth():
    tree = Call("a", children=(Call("b", children=(Call("c"),)), Call("d")))
    assert [c.service for c in tree.walk()] == ["a", "b", "c", "d"]
    assert tree.depth() == 3
    assert Call("leaf").depth() == 1


def test_request_latency_requires_completion():
    request = Request(request_class="r", arrival_time=1.0)
    with pytest.raises(ValueError):
        _ = request.latency
    request.completion_time = 3.5
    assert request.latency == 2.5


def test_request_ids_are_run_local():
    # Ids come from the owning Application, never from process-global
    # state (PAR002): ad-hoc requests stay unassigned.
    a = Request(request_class="r", arrival_time=0)
    b = Request(request_class="r", arrival_time=0, request_id=7)
    assert a.request_id == -1
    assert b.request_id == 7


def test_mq_priority_ordering():
    env = Environment()
    queue = MessageQueue(env, "q")
    queue.publish("low", priority=1)
    queue.publish("high", priority=0)
    queue.publish("high2", priority=0)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield queue.consume()
            got.append(MessageQueue.payload_of(item))

    env.process(consumer(env))
    env.run()
    assert got == ["high", "high2", "low"]
    assert queue.published == 3


def test_mq_publish_never_blocks():
    env = Environment()
    queue = MessageQueue(env, "q")
    for i in range(10_000):
        queue.publish(i)
    assert queue.depth == 10_000


def test_mq_cancel_consume():
    env = Environment()
    queue = MessageQueue(env, "q")
    event = queue.consume()
    queue.cancel_consume(event)
    queue.publish("x")
    # The cancelled getter must not swallow the message.
    assert queue.depth == 1


_MODES = {"mq": CallMode.MQ, "rpc": CallMode.RPC, "event": CallMode.EVENT}


def _scanned_children(call: Call, mode: CallMode) -> list[Call]:
    """The per-hop scan the cached split replaced: filter, then repeat."""
    out = []
    for child in call.children:
        if child.mode == mode:
            for _ in range(child.repeat):
                out.append(child)
    return out


def _assert_split_matches_scan(call: Call) -> None:
    for name, mode in _MODES.items():
        cached = getattr(call, f"{name}_children")
        assert isinstance(cached, tuple)
        assert list(cached) == _scanned_children(call, mode)
        assert all(a is b for a, b in zip(cached, _scanned_children(call, mode)))


@pytest.mark.parametrize(
    "builder",
    [
        build_social_network_spec,
        build_vanilla_social_network_spec,
        build_media_service_spec,
        build_video_pipeline_spec,
    ],
)
def test_cached_child_split_matches_per_mode_scan(builder):
    spec = builder()
    nodes = [call for rc in spec.request_classes for call in rc.tree.walk()]
    assert nodes
    for call in nodes:
        _assert_split_matches_scan(call)


def test_cached_child_split_expands_repeat_in_tree_order():
    tree = Call(
        "a",
        children=(
            Call("b", CallMode.MQ, repeat=2),
            Call("c", repeat=3),
            Call("d", CallMode.EVENT),
            Call("e", CallMode.MQ),
            Call("f"),
        ),
    )
    assert [c.service for c in tree.mq_children] == ["b", "b", "e"]
    assert [c.service for c in tree.rpc_children] == ["c", "c", "c", "f"]
    assert [c.service for c in tree.event_children] == ["d"]
    _assert_split_matches_scan(tree)


def test_cached_child_split_survives_pickle_and_replace():
    tree = Call(
        "a",
        children=(Call("b", CallMode.MQ, repeat=2), Call("c"), Call("d", CallMode.EVENT)),
    )
    clone = pickle.loads(pickle.dumps(tree))
    assert clone == tree and hash(clone) == hash(tree)
    _assert_split_matches_scan(clone)
    replaced = dataclasses.replace(tree, children=(Call("x", CallMode.EVENT, repeat=2),))
    _assert_split_matches_scan(replaced)
    assert [c.service for c in replaced.event_children] == ["x", "x"]
    assert replaced.mq_children == () and replaced.rpc_children == ()
    # Derived tuples stay out of equality and the repr.
    assert "mq_children" not in repr(tree)
