"""Model-based testing with TWO authorities.

Extends the single-authority machine with the scheme's structural
subtlety: decryption needs a key from *every* authority involved in the
ciphertext — even when the satisfied OR-branch doesn't use that
authority's attributes. The model tracks per-authority key possession
separately from attribute satisfaction, and the real system must agree
with both conditions under arbitrary issue/upload/read/revoke
interleavings.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.core.attributes import involved_authorities
from repro.ec.params import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    SchemeError,
)
from repro.policy.lsss import lsss_from_policy
from repro.policy.parser import parse
from repro.system.workflow import CloudStorageSystem

AUTHORITIES = {"aa": ["a", "b"], "bb": ["c"]}
POLICIES = [
    "aa:a",
    "bb:c",
    "aa:a AND bb:c",
    "aa:a OR bb:c",          # OR across authorities: the tricky case
    "(aa:a AND aa:b) OR bb:c",
]
USER_IDS = ["u0", "u1"]
DENIED = (PolicyNotSatisfiedError, SchemeError, AuthorizationError)

_INVOLVED = {
    policy: involved_authorities(
        lsss_from_policy(policy).row_labels
    )
    for policy in POLICIES
}


class MultiAuthorityMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = CloudStorageSystem(TOY80, seed=0xCAFE)
        for aid, attrs in AUTHORITIES.items():
            self.system.add_authority(aid, attrs)
        self.system.add_owner("alice")
        self.users = {}
        for uid in USER_IDS:
            self.system.add_user(uid)
            self.users[uid] = {aid: None for aid in AUTHORITIES}
        self.records = {}
        self.counter = 0

    def teardown(self):
        if hasattr(self, "system"):
            self.system.close()

    @rule(
        uid=st.sampled_from(USER_IDS),
        aid=st.sampled_from(sorted(AUTHORITIES)),
        data=st.data(),
    )
    def issue_keys(self, uid, aid, data):
        subset = data.draw(
            st.sets(st.sampled_from(AUTHORITIES[aid]), min_size=1),
            label="attributes",
        )
        self.system.issue_keys(uid, aid, sorted(subset), "alice")
        self.users[uid][aid] = set(subset)

    @rule(policy=st.sampled_from(POLICIES))
    def upload(self, policy):
        self.counter += 1
        record_id = f"rec{self.counter}"
        payload = f"payload-{self.counter}".encode("utf-8")
        self.system.upload("alice", record_id, {"body": (payload, policy)})
        self.records[record_id] = (policy, payload)

    def _expected(self, uid, policy):
        held = self.users[uid]
        for aid in _INVOLVED[policy]:
            if held[aid] is None:
                return False  # structural: need a key from every AA
        qualified = {
            f"{aid}:{name}"
            for aid, names in held.items()
            if names
            for name in names
        }
        return parse(policy).evaluate(qualified)

    def _do_read(self, uid, data):
        record_id = data.draw(
            st.sampled_from(sorted(self.records)), label="record"
        )
        policy, payload = self.records[record_id]
        expected = self._expected(uid, policy)
        try:
            result = self.system.read(uid, record_id, "body")
            assert expected, (
                f"unauthorized read SUCCEEDED: {uid} {policy} "
                f"{self.users[uid]}"
            )
            assert result == payload
        except DENIED as exc:
            assert not expected, (
                f"authorized read DENIED ({type(exc).__name__}): "
                f"{uid} {policy} {self.users[uid]}"
            )

    @precondition(lambda self: bool(self.records))
    @rule(uid=st.sampled_from(USER_IDS), data=st.data())
    def read(self, uid, data):
        self._do_read(uid, data)

    @precondition(lambda self: bool(self.records))
    @rule(uid=st.sampled_from(USER_IDS), data=st.data())
    def read_again(self, uid, data):
        self._do_read(uid, data)

    @precondition(
        lambda self: any(
            names for held in self.users.values() for names in held.values()
        )
    )
    @rule(data=st.data())
    def revoke(self, data):
        candidates = [
            (uid, aid)
            for uid, held in self.users.items()
            for aid, names in held.items()
            if names
        ]
        uid, aid = data.draw(st.sampled_from(sorted(candidates)),
                             label="revocation target")
        attribute = data.draw(
            st.sampled_from(sorted(self.users[uid][aid])),
            label="revoked attribute",
        )
        self.system.revoke(aid, uid, [attribute])
        self.users[uid][aid].discard(attribute)
        if not self.users[uid][aid]:
            self.users[uid][aid] = None


MultiAuthorityMachine.TestCase.settings = settings(
    max_examples=6, stateful_step_count=18, deadline=None
)
TestMultiAuthorityModel = MultiAuthorityMachine.TestCase
