"""The simulator's one request path against the reference wire path.

The full-system simulation (DES and fluid alike) reaches each core's
store through ``FullSystemStack.serve_op`` and sizes replies with the
protocol's framing helpers instead of rendering and re-parsing memcached
text.  These tests pin both to what the real server loop produces: the
helpers to ``render_response`` / the storage status line, and
``serve_op`` to a ``MemcachedServer`` connection fed the same op stream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import iridium_stack, mercury_stack
from repro.errors import SimulationError
from repro.kvstore import KVStore
from repro.kvstore.protocol import (
    GET_MISS_LENGTH,
    Response,
    get_hit_length,
    render_response,
    storage_reply_length,
)
from repro.kvstore.server_loop import MemcachedServer
from repro.kvstore.store import StoreResult
from repro.sim.full_system import FullSystemStack
from repro.units import MB

ONE_PAGE = 1 * MB

ascii_key = st.binary(min_size=1, max_size=250).map(
    lambda raw: bytes(33 + b % 94 for b in raw)
)
values = st.binary(min_size=0, max_size=4096)
flags = st.integers(min_value=0, max_value=2**32 - 1)


def reference_storage_length(result: StoreResult) -> int:
    return len(result.value.encode() + b"\r\n")


class TestFramingHelpers:
    @settings(max_examples=150, deadline=None)
    @given(key=ascii_key, value=values, item_flags=flags, crowd_out=st.booleans())
    def test_helpers_match_rendered_replies(
        self, key, value, item_flags, crowd_out
    ):
        # A one-page store: when a tiny item claims the only page first,
        # any value of another slab class cannot be stored.
        store = KVStore(ONE_PAGE)
        if crowd_out:
            store.set(b"crowd", b"")
        result = store.set(key, value, item_flags)
        assert result in (StoreResult.STORED, StoreResult.OUT_OF_MEMORY)
        assert storage_reply_length(result) == reference_storage_length(result)
        item = store.get(key)
        if item is None:
            assert GET_MISS_LENGTH == len(
                render_response(Response(status="END"))
            )
        else:
            reply = render_response(
                Response(status="END", values=((key, item_flags, value, None),))
            )
            assert get_hit_length(len(key), item_flags, len(value)) == len(reply)

    def test_one_page_store_reports_out_of_memory(self):
        store = KVStore(ONE_PAGE)
        assert store.set(b"crowd", b"") is StoreResult.STORED
        result = store.set(b"big", b"v" * 4096)
        assert result is StoreResult.OUT_OF_MEMORY
        assert storage_reply_length(result) == reference_storage_length(result)

    def test_miss_length_matches_the_server_loop(self):
        connection = MemcachedServer(KVStore(ONE_PAGE)).connect()
        reply = connection.feed(b"get absent\r\n")
        assert GET_MISS_LENGTH == len(reply)


def wire_op(connection, key: bytes, verb: str, size: int) -> tuple[bool, int]:
    """The reference path: one op as memcached text through a connection."""
    if verb == "GET":
        reply = connection.feed(b"get %s\r\n" % key)
        return reply.startswith(b"VALUE "), len(reply)
    reply = connection.feed(
        b"set %s 0 0 %d\r\n%s\r\n" % (key, size, b"x" * size)
    )
    assert reply == b"STORED\r\n" or reply.startswith(b"SERVER_ERROR")
    return True, len(reply)


def store_snapshot(store: KVStore):
    return [(item.key, item.value, item.flags) for item in store.items_live()]


class TestServeOpDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_serve_op_matches_the_wire_path(self, seed):
        rng = random.Random(seed)
        system = FullSystemStack(
            stack=mercury_stack(2), memory_per_core_bytes=2 * MB, seed=seed
        )
        direct = system.servers[0].store
        reference = KVStore(2 * MB)
        connection = MemcachedServer(reference).connect()
        # Mixed slab classes in a two-page budget: the first two classes
        # claim the pages, so the stream hits, misses, evicts within
        # those classes and runs out of memory in every other one.
        sizes = [20000, 20000, 20000, 64, 64, 64, 0, 300, 4000]
        outcomes = set()
        for _ in range(3000):
            key = b"key:%d" % rng.randrange(400)
            verb = "GET" if rng.random() < 0.5 else "PUT"
            size = rng.choice(sizes)
            got = system.serve_op(0, key, verb, size)
            assert got == wire_op(connection, key, verb, size)
            outcomes.add((verb, got[0], got[1]))
        oom = reference_storage_length(StoreResult.OUT_OF_MEMORY)
        assert ("GET", True) in {(v, h) for v, h, _ in outcomes}
        assert ("GET", False) in {(v, h) for v, h, _ in outcomes}
        assert ("PUT", True, oom) in outcomes
        assert direct.stats.evictions > 0
        assert store_snapshot(direct) == store_snapshot(reference)
        assert direct.stats == reference.stats

    def test_serve_op_shares_one_payload_per_size(self):
        system = FullSystemStack(
            stack=mercury_stack(2), memory_per_core_bytes=ONE_PAGE
        )
        system.serve_op(0, b"a", "PUT", 64)
        system.serve_op(1, b"b", "PUT", 64)
        first = system.servers[0].store.peek(b"a").value
        second = system.servers[1].store.peek(b"b").value
        assert first == b"x" * 64
        assert first is second

    def test_unexpected_store_result_raises(self, monkeypatch):
        system = FullSystemStack(
            stack=mercury_stack(1), memory_per_core_bytes=ONE_PAGE
        )
        store = system.servers[0].store
        monkeypatch.setattr(
            store, "set", lambda key, value: StoreResult.NOT_STORED
        )
        with pytest.raises(SimulationError, match="NOT_STORED"):
            system.serve_op(0, b"k", "PUT", 8)


class TestTimingMemo:
    def test_request_timing_is_memoised_per_shape(self):
        model = mercury_stack(4).latency_model()
        first = model.request_timing("GET", 64)
        assert model.request_timing("GET", 64) is first
        assert model.request_timing("PUT", 64) is not first
        assert model.request_timing("GET", 64, key_bytes=10) != first
        assert model.request_timing("GET", 64, transport="udp") != first

    def test_memo_matches_a_fresh_model(self):
        warm = iridium_stack(4).latency_model()
        for verb in ("GET", "PUT"):
            for size in (0, 64, 4096):
                warm.request_timing(verb, size)
                fresh = iridium_stack(4).latency_model()
                assert warm.request_timing(verb, size) == fresh.request_timing(
                    verb, size
                )
                assert warm.request_timing_tiered(
                    verb, size, 1e-5
                ) == fresh.request_timing_tiered(verb, size, 1e-5)
