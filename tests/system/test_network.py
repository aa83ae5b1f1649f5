"""Tests for the byte-metered transfers: the Meter and the connections
that record on it."""

import pytest

from repro.service.client import ServiceConnection
from repro.system.meter import (
    ROLE_AA,
    ROLE_OWNER,
    ROLE_USER,
    Meter,
    role_pair,
)


class _Stub:
    def __init__(self, name, role):
        self.name = name
        self.role = role


def send(meter, sender, recipient, kind, payload):
    return meter.record(sender.name, sender.role, recipient.name,
                        recipient.role, kind, payload)


def connection(group, meter=None, role=ROLE_OWNER, name="owner:alice"):
    """A client connection, never connected: metering needs no socket."""
    return ServiceConnection(group, "127.0.0.1", 0, role=role, name=name,
                             meter=meter)


@pytest.fixture()
def meter(group):
    return Meter(group)


class TestSend:
    def test_returns_size(self, meter, group):
        aa = _Stub("AA:h", ROLE_AA)
        user = _Stub("user:bob", ROLE_USER)
        assert send(meter, aa, user, "key", group.g) == group.g1_bytes

    def test_logs_entry(self, meter, group):
        aa = _Stub("AA:h", ROLE_AA)
        user = _Stub("user:bob", ROLE_USER)
        send(meter, aa, user, "key", group.g)
        entry = meter.log[0]
        assert entry.sender == "AA:h"
        assert entry.recipient_role == ROLE_USER
        assert entry.kind == "key"
        assert entry.size_bytes == group.g1_bytes

    def test_channel_aggregation_is_symmetric(self, meter, group):
        aa = _Stub("AA:h", ROLE_AA)
        user = _Stub("user:bob", ROLE_USER)
        send(meter, aa, user, "key", group.g)
        send(meter, user, aa, "ack", b"ok")
        assert meter.messages_between(ROLE_AA, ROLE_USER) == 2
        assert (
            meter.bytes_between(ROLE_USER, ROLE_AA)
            == group.g1_bytes + 2
        )

    def test_bytes_by_kind(self, meter, group):
        aa = _Stub("AA:h", ROLE_AA)
        owner = _Stub("owner:alice", ROLE_OWNER)
        send(meter, aa, owner, "pk", group.gt)
        send(meter, aa, owner, "pk", group.gt)
        send(meter, owner, aa, "sk", b"xy")
        assert meter.bytes_by_kind() == {
            "pk": 2 * group.gt_bytes,
            "sk": 2,
        }

    def test_total_and_reset(self, meter, group):
        aa = _Stub("AA:h", ROLE_AA)
        user = _Stub("user:bob", ROLE_USER)
        send(meter, aa, user, "key", b"1234")
        assert meter.total_bytes() == 4
        meter.reset()
        assert meter.total_bytes() == 0
        assert meter.log == []
        assert meter.messages_between(ROLE_AA, ROLE_USER) == 0


class TestRolePair:
    def test_canonical_order(self):
        assert role_pair("user", "aa") == role_pair("aa", "user")
        assert role_pair("aa", "user") == ("aa", "user")


class TestSharedMeter:
    """Connections record on a Meter that other transports can share."""

    def test_network_owns_a_meter_by_default(self, group):
        conn = connection(group)
        assert isinstance(conn.meter, Meter)
        assert connection(group).meter is not conn.meter

    def test_injected_meter_is_shared(self, meter, group):
        owner = connection(group, meter)
        user = connection(group, meter, role=ROLE_USER, name="user:bob")
        owner.meter_send("store-record", b"1234")
        user.meter_receive("component-download", b"56")
        # Both connections fold into the one shared accounting object.
        assert owner.meter is user.meter is meter
        assert meter.total_bytes() == 6
        assert meter.messages_between(ROLE_OWNER, "server") == 1
        assert meter.messages_between(ROLE_USER, "server") == 1

    def test_direct_meter_records_join_network_records(self, meter, group):
        connection(group, meter).meter_send("store-record", b"1234")
        meter.record("AA:h", ROLE_AA, "owner:alice", ROLE_OWNER, "pk", b"56")
        assert meter.total_bytes() == 6
        assert meter.bytes_by_kind() == {"store-record": 4, "pk": 2}

    def test_wire_bytes_are_separate_from_payload_bytes(self, meter):
        aa = _Stub("AA:h", ROLE_AA)
        user = _Stub("user:bob", ROLE_USER)
        send(meter, aa, user, "key", b"1234")
        meter.record_wire(100)
        assert meter.total_bytes() == 4
        assert meter.wire_bytes == 100
        meter.reset()
        assert meter.wire_bytes == 0

    def test_channel_summary_shape(self, meter):
        aa = _Stub("AA:h", ROLE_AA)
        user = _Stub("user:bob", ROLE_USER)
        send(meter, aa, user, "key", b"1234")
        assert meter.channel_summary() == {
            "aa<->user": {"messages": 1, "bytes": 4}
        }
