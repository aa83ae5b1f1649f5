"""Model-based stateful testing of the full access-control system.

Hypothesis drives random interleavings of key issuance, uploads, reads
and revocations against a simple set-based model of "who currently
holds which attributes". After every read, the real system's outcome
(plaintext vs a denial) must match the model's prediction. This is the
strongest correctness statement in the suite: no sequence of supported
operations may leave keys, versions and re-encrypted ciphertexts in a
state where access control and the model disagree.

The system runs over the live storage service, so the model also
drives the owner's writes: replaces, deletes and self-reads, record ids
that prefix one another, and a second owner whose replaces and deletes
of the first owner's records must be refused. After every step the
store must pass its audit and hold exactly the owners' live ledger ids.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.ec.params import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    SchemeError,
)
from repro.policy.parser import parse
from repro.system.workflow import CloudStorageSystem

ATTRS = ["a", "b", "c"]
POLICIES = [
    "aa:a",
    "aa:b",
    "aa:a AND aa:b",
    "aa:a OR aa:c",
    "(aa:a AND aa:b) OR aa:c",
]
USER_IDS = ["u0", "u1", "u2"]
DENIED = (PolicyNotSatisfiedError, SchemeError, AuthorizationError)
OWNER, FOREIGN = "alice", "mallory"


class AccessControlMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = CloudStorageSystem(TOY80, seed=0xBEEF)
        self.system.add_authority("aa", ATTRS)
        self.system.add_owner(OWNER)
        self.system.add_owner(FOREIGN)
        self.users = {}
        for uid in USER_IDS:
            self.system.add_user(uid)
            self.users[uid] = None  # registered, no keys yet
        self.records = {}
        self.counter = 0
        self.op_log = []

    def teardown(self):
        if hasattr(self, "system"):
            self.system.close()

    # -- rules -----------------------------------------------------------------

    @rule(
        uid=st.sampled_from(USER_IDS),
        subset=st.sets(st.sampled_from(ATTRS), min_size=1),
    )
    def issue_keys(self, uid, subset):
        self.system.issue_keys(uid, "aa", sorted(subset), "alice")
        self.users[uid] = set(subset)
        self.op_log.append(("issue", uid, tuple(sorted(subset))))

    @rule(policy=st.sampled_from(POLICIES))
    def upload(self, policy):
        self.counter += 1
        record_id = f"rec{self.counter}"
        payload = f"data-{self.counter}".encode("utf-8")
        self.system.upload("alice", record_id, {"body": (payload, policy)})
        self.records[record_id] = (policy, payload)
        self.op_log.append(("upload", record_id, policy))

    def _do_read(self, uid, data):
        record_id = data.draw(
            st.sampled_from(sorted(self.records)), label="record"
        )
        policy, payload = self.records[record_id]
        held = self.users[uid]
        if held is None:
            expect_success = False
        else:
            qualified = {f"aa:{name}" for name in held}
            expect_success = parse(policy).evaluate(qualified)
        context = (
            f"{uid} holding {held} reads {record_id} ({policy}); "
            f"history: {self.op_log}"
        )
        try:
            result = self.system.read(uid, record_id, "body")
            assert expect_success, f"unauthorized read SUCCEEDED: {context}"
            assert result == payload, f"wrong plaintext: {context}"
        except DENIED as exc:
            assert not expect_success, (
                f"authorized read DENIED ({type(exc).__name__}): {context}"
            )
        self.op_log.append(("read", uid, record_id))

    @precondition(lambda self: bool(self.records))
    @rule(uid=st.sampled_from(USER_IDS), data=st.data())
    def read(self, uid, data):
        self._do_read(uid, data)

    @precondition(lambda self: any(self.users.values()))
    @rule(data=st.data())
    def revoke(self, data):
        candidates = sorted(
            uid for uid, held in self.users.items() if held
        )
        uid = data.draw(st.sampled_from(candidates), label="revoked user")
        held = self.users[uid]
        attribute = data.draw(
            st.sampled_from(sorted(held)), label="revoked attribute"
        )
        self.system.revoke("aa", uid, [attribute])
        held.discard(attribute)
        if not held:
            self.users[uid] = None  # all keys gone
        self.op_log.append(("revoke", uid, attribute))

    @precondition(lambda self: bool(self.records))
    @rule(uid=st.sampled_from(USER_IDS), data=st.data())
    def read_again(self, uid, data):
        """Second read rule: doubles the probability that hypothesis
        schedules a read, so revoke-then-read sequences actually occur."""
        self._do_read(uid, data)

    # -- owner writes on the live service ---------------------------------------------

    def _draw_record(self, data):
        return data.draw(st.sampled_from(sorted(self.records)),
                         label="record")

    @precondition(lambda self: bool(self.records))
    @rule(data=st.data(), policy=st.sampled_from(POLICIES))
    def upload_nested(self, data, policy):
        """Upload under an id that extends a live record's: ``rec1/n2``'s
        ciphertext ``rec1/n2/body`` shares the prefix ``rec1/`` with
        ``rec1/body``, so deleting ``rec1`` must leave it live."""
        parent = self._draw_record(data)
        self.counter += 1
        record_id = f"{parent}/n{self.counter}"
        payload = f"nested-{self.counter}".encode("utf-8")
        self.system.upload(OWNER, record_id, {"body": (payload, policy)})
        self.records[record_id] = (policy, payload)
        self.op_log.append(("upload", record_id, policy))

    @precondition(lambda self: bool(self.records))
    @rule(data=st.data(), policy=st.sampled_from(POLICIES))
    def update_component(self, data, policy):
        record_id = self._draw_record(data)
        payload = f"update-{len(self.op_log)}".encode("utf-8")
        self.system.update_component(OWNER, record_id, "body", payload,
                                     policy)
        self.records[record_id] = (policy, payload)
        self.op_log.append(("update", record_id, policy))

    @precondition(lambda self: bool(self.records))
    @rule(data=st.data())
    def delete_record(self, data):
        # Half the draws delete a record another one's id extends.
        records = sorted(self.records)
        parents = [record_id for record_id in records
                   if any(other.startswith(f"{record_id}/")
                          for other in records)]
        record_id = data.draw(
            st.sampled_from(parents) | st.sampled_from(records)
            if parents else st.sampled_from(records),
            label="record",
        )
        self.system.delete_record(OWNER, record_id)
        del self.records[record_id]
        self.op_log.append(("delete", record_id))

    @precondition(lambda self: bool(self.records))
    @rule(data=st.data())
    def read_own(self, data):
        record_id = self._draw_record(data)
        _, payload = self.records[record_id]
        assert self.system.read_own(OWNER, record_id, "body") == payload, (
            f"owner self-read of {record_id}; history: {self.op_log}"
        )
        self.op_log.append(("read_own", record_id))

    @precondition(lambda self: bool(self.records))
    @rule(data=st.data(), delete=st.booleans())
    def foreign_write(self, data, delete):
        """Another owner's replace or delete is refused; the model (and
        so every later read) is unchanged."""
        record_id = self._draw_record(data)
        with pytest.raises(SchemeError, match="belongs to"):
            if delete:
                self.system.delete_record(FOREIGN, record_id)
            else:
                self.system.update_component(FOREIGN, record_id, "body",
                                             b"forged", "aa:a")
        self.op_log.append(("foreign", "delete" if delete else "update",
                            record_id))

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def server_never_stores_plaintext(self):
        if not hasattr(self, "records"):
            return
        for record_id, (_, payload) in self.records.items():
            stored = self.system.server.store.get(record_id)
            assert payload not in stored.component("body").data_ciphertext.body


    @invariant()
    def store_holds_the_live_ledger_ids(self):
        if not hasattr(self, "records"):
            return
        store = self.system.server.store
        assert store.check()["ok"]
        live = {
            ciphertext_id
            for owner in self.system.owners.values()
            for ciphertext_id in owner.core.records_involving("aa")
        }
        assert store.ciphertext_ids() == live, f"history: {self.op_log}"


AccessControlMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=20, deadline=None
)
TestAccessControlModel = AccessControlMachine.TestCase
