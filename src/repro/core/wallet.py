"""The user's key wallet: every user role's keys and sessions, in one place.

In the system model (Fig. 1) a user holds one secret key per (owner,
AID). Section V-C ReKey changes that state in one of two ways: the
revoked user receives reduced keys (or loses the key), and every other
holder rolls forward with the update key — or, in the hardened
protocol, receives a re-issued key. :class:`UserWallet` owns that state,
the bounded decryption-session cache and the outsourcing retrieval keys
for every user role: the single-node ``UserClient`` (which
:class:`~repro.system.workflow.CloudStorageSystem` runs as its users)
and the fleet's ``ClusterUser`` inherit it, and the load harness holds
one.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.authority import apply_update_key
from repro.core.keys import UpdateKey, UserPublicKey
from repro.core.outsourcing import make_transform_key
from repro.errors import AuthorizationError, SchemeError


class UserWallet:
    """One user's ``SK_{UID,AID}`` per owner, sessions and retrieval keys."""

    #: Bound on cached :class:`~repro.fastpath.decrypt.DecryptionSession`
    #: instances (one per (owner, policy shape) pair this user reads under).
    MAX_DECRYPT_SESSIONS = 32

    def __init__(self, group, uid: str):
        self.group = group
        self.uid = uid
        self.public_key = None
        self.secret_keys = {}  # owner id -> {aid -> UserSecretKey}
        # (owner id, policy source, lsss method) -> DecryptionSession.
        # Entries are freshness-checked against the live key bundle on
        # every hit (DecryptionSession.matches), so a revocation-driven
        # key roll transparently rebuilds instead of serving stale math.
        self.decrypt_sessions = OrderedDict()
        self.retrieval_keys = {}  # owner id -> RetrievalKey (private z)

    def receive_public_key(self, public_key: UserPublicKey) -> None:
        if public_key.uid != self.uid:
            raise SchemeError("received a public key for a different UID")
        self.public_key = public_key

    def receive_secret_key(self, secret_key) -> None:
        if secret_key.uid != self.uid:
            raise SchemeError("received a secret key for a different UID")
        self.secret_keys.setdefault(secret_key.owner_id, {})[
            secret_key.aid
        ] = secret_key

    def secret_keys_for(self, owner_id: str) -> dict:
        return dict(self.secret_keys.get(owner_id, {}))

    def has_keys_from(self, aid: str) -> bool:
        return any(aid in keys for keys in self.secret_keys.values())

    def apply_update_key(self, update_key: UpdateKey) -> None:
        """Roll every matching key forward (non-revoked user path)."""
        for owner_id, keys in self.secret_keys.items():
            key = keys.get(update_key.aid)
            if key is not None and key.version == update_key.from_version:
                if owner_id in update_key.uk1:
                    keys[update_key.aid] = apply_update_key(key, update_key)

    def drop_keys(self, aid: str, owner_id: str) -> None:
        """Forget a key (revoked user whose attribute set became empty)."""
        self.secret_keys.get(owner_id, {}).pop(aid, None)

    def accept_rekey(self, result) -> None:
        """Take delivery of one :class:`~repro.core.revocation.RekeyResult`.

        The revoked user's key for each owner is replaced by its reduced
        key, or dropped where no attribute remains. Every other holder
        takes its re-issued key (hardened protocol) or rolls its key
        forward with the update key (the paper's protocol).
        """
        if self.uid == result.revoked_uid:
            for owner_id in list(self.secret_keys):
                if owner_id not in result.revoked_user_keys:
                    self.drop_keys(result.aid, owner_id)
            for new_key in result.revoked_user_keys.values():
                self.receive_secret_key(new_key)
        elif result.is_hardened:
            for (uid, _), new_key in result.reissued_keys.items():
                if uid == self.uid:
                    self.receive_secret_key(new_key)
        else:
            self.apply_update_key(result.update_key)

    def keys_for_owner(self, owner_id: str) -> dict:
        """The live key bundle for one owner's data, or a typed refusal."""
        keys = self.secret_keys.get(owner_id)
        if not keys:
            raise AuthorizationError(
                f"user {self.uid!r} holds no keys scoped to owner "
                f"{owner_id!r}"
            )
        return keys

    def decryption_session_for(self, ciphertext, meter):
        """The cached :class:`DecryptionSession` for a ciphertext's shape.

        One session per (owner, policy source, LSSS method) this user
        reads under: repeat reads of records sharing a policy reuse the
        parsed reconstruction coefficients, the combined key products,
        and every prepared Miller loop. A hit whose key bundle has
        rolled (revocation) rebuilds transparently — the cache can
        serve stale *speed*, never stale *keys*. Hits, misses and
        evictions are counted on ``meter`` as ``decrypt.session.*``.
        """
        from repro.fastpath.decrypt import DecryptionSession

        keys = self.keys_for_owner(ciphertext.owner_id)
        matrix = ciphertext.matrix
        cache_key = (ciphertext.owner_id, str(matrix.policy), matrix.method)
        session = self.decrypt_sessions.get(cache_key)
        if session is not None:
            if session.matches(self.public_key, keys):
                self.decrypt_sessions.move_to_end(cache_key)
                meter.bump("decrypt.session.hit")
                return session
            del self.decrypt_sessions[cache_key]
            meter.bump("decrypt.session.evict")
        meter.bump("decrypt.session.miss")
        session = DecryptionSession(
            self.group, ciphertext, self.public_key, keys, meter=meter,
        )
        self.decrypt_sessions[cache_key] = session
        while len(self.decrypt_sessions) > self.MAX_DECRYPT_SESSIONS:
            self.decrypt_sessions.popitem(last=False)
            meter.bump("decrypt.session.evict")
        return session

    def mint_transform_key(self, owner_id: str) -> tuple:
        """A fresh outsourcing token for one owner's data.

        Returns ``(TransformKey, RetrievalKey)``: the blinded bundle goes
        to the server, the private ``z`` stays here — store it in
        :attr:`retrieval_keys` once the server took the bundle.
        """
        return make_transform_key(
            self.group, self.public_key, self.keys_for_owner(owner_id)
        )
