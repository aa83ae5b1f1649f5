"""Tests for the audit-log query layer."""

import pytest

from repro.ec.params import TOY80
from repro.system.audit import AuditLog
from repro.system.workflow import CloudStorageSystem


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=101)
    deployment.add_authority("aa", ["x"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.issue_keys("bob", "aa", ["x"], "alice")
    deployment.upload("alice", "rec", {"c": (b"data", "aa:x")})
    deployment.read("bob", "rec", "c")
    yield deployment
    deployment.close()


@pytest.fixture()
def audit(system):
    return AuditLog(system.meter)


class TestQueries:
    def test_entries_and_len(self, audit):
        assert len(audit) == len(audit.entries) > 0

    def test_by_kind(self, audit):
        downloads = audit.by_kind("component-download")
        assert len(downloads) == 1
        assert downloads[0].sender_role == "server"

    def test_by_entity(self, audit):
        bob_entries = audit.by_entity("user:bob")
        assert bob_entries
        for entry in bob_entries:
            assert "user:bob" in (entry.sender, entry.recipient)

    def test_between_roles(self, audit, system):
        entries = audit.between_roles("server", "user")
        total = sum(entry.size_bytes for entry in entries)
        assert total == system.meter.bytes_between("server", "user")

    def test_kinds(self, audit):
        kinds = audit.kinds()
        assert {"user-secret-key", "store-record",
                "component-download"} <= kinds


class TestSummaries:
    def test_summary_balances(self, audit, system):
        total_sent = sum(
            audit.summary(name).sent_bytes
            for name in {entry.sender for entry in audit.entries}
        )
        assert total_sent == system.meter.total_bytes()

    def test_server_summary(self, audit):
        summary = audit.summary("cloud")
        assert summary.received_messages >= 2  # store + read-request
        assert summary.sent_messages >= 1      # download
        assert summary.total_bytes == (
            summary.sent_bytes + summary.received_bytes
        )

    def test_top_talkers_ordering(self, audit):
        talkers = audit.top_talkers(limit=3)
        totals = [talker.total_bytes for talker in talkers]
        assert totals == sorted(totals, reverse=True)
        assert len(talkers) <= 3

    def test_unknown_entity_summary_is_zero(self, audit):
        summary = audit.summary("nobody")
        assert summary.total_bytes == 0


class TestExport:
    def test_jsonl_roundtrip(self, audit):
        text = audit.to_jsonl()
        parsed = AuditLog.parse_jsonl(text)
        assert parsed == list(audit.entries)

    def test_jsonl_carries_no_payloads(self, audit):
        text = audit.to_jsonl()
        assert "data" not in text or '"kind"' in text  # metadata only
        for line in text.splitlines():
            import json

            record = json.loads(line)
            assert set(record) == {
                "seq", "sender", "sender_role", "recipient",
                "recipient_role", "kind", "bytes",
            }

    def test_empty_log_export(self, group):
        from repro.system.meter import Meter

        audit = AuditLog(Meter(group))
        assert audit.to_jsonl() == ""
        assert AuditLog.parse_jsonl("") == []
