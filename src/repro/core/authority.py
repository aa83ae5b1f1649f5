"""Attribute authorities: AASetup, KeyGen and ReKey (Sections V-B, V-C).

An :class:`AttributeAuthority` manages a set of attributes inside its
own domain, independently of every other authority. Its entire secret
state is the *version key* ``VK_AID = α_AID`` — the asymmetry the paper
highlights in Table III (|p| bytes at the AA versus 2·n_k·|p| in
Lewko's scheme).

Key generation requires the requesting owner's ``SK_o = {g^{1/β}, r/β}``
(owners hand it to every AA over a secure channel at Owner Setup), which
is what lets the AA produce the owner-scoped component
``K_{UID,AID} = PK_UID^{r/β} · g^{α/β}`` without learning β or r.

ReKey implements attribute revocation's first phase: draw a fresh
``α̃``, re-issue the revoked user's key on its reduced attribute set, and
emit the update key ``UK = (UK1 = g^{(α̃-α)/β}, UK2 = α̃/α)`` that
non-revoked users, owners and the server use to roll forward.
"""

from __future__ import annotations

from repro.core.attributes import qualify, validate_identifier
from repro.core.keys import (
    AuthorityPublicKey,
    OwnerSecretKey,
    PublicAttributeKeys,
    UpdateKey,
    UserPublicKey,
    UserSecretKey,
    VersionKey,
)
from repro.errors import RevocationError, SchemeError
from repro.math.integers import invmod
from repro.pairing.group import PairingGroup


class AttributeAuthority:
    """Crypto state and algorithms of one AA (AID, version key, registries)."""

    def __init__(self, group: PairingGroup, aid: str, attributes):
        validate_identifier(aid, "authority id")
        self.group = group
        self.aid = aid
        self._attributes = set()
        for name in attributes:
            validate_identifier(name, "attribute name")
            self._attributes.add(name)
        if not self._attributes:
            raise SchemeError(f"authority {aid!r} must manage at least one attribute")
        self._alpha = group.random_scalar()
        self._version = 0
        self._owner_keys = {}      # owner id -> OwnerSecretKey
        self._user_public = {}     # uid -> UserPublicKey
        # (uid, owner id) -> set of qualified attributes currently held
        self._issued = {}
        self._keygen_sessions = {}  # (owner id, attrs) -> KeyGenSession

    # -- identifiers and naming -----------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def attributes(self) -> frozenset:
        """Unqualified attribute names this authority manages."""
        return frozenset(self._attributes)

    def qualified(self, attribute: str) -> str:
        """The fully-qualified name of one of this AA's attributes."""
        if attribute not in self._attributes:
            raise SchemeError(
                f"authority {self.aid!r} does not manage attribute {attribute!r}"
            )
        return qualify(self.aid, attribute)

    def qualified_attributes(self) -> frozenset:
        return frozenset(qualify(self.aid, name) for name in self._attributes)

    def add_attribute(self, attribute: str) -> str:
        """Start managing a new attribute (the AA's "setting … attributes"
        duty from the system model).

        No re-keying is needed: the public attribute key
        ``g^{α·H(aid:attr)}`` derives from the current version key, so
        existing user keys and ciphertexts are untouched. The authority
        must republish its public attribute keys to owners afterwards.
        Returns the qualified name.
        """
        validate_identifier(attribute, "attribute name")
        if attribute in self._attributes:
            raise SchemeError(
                f"authority {self.aid!r} already manages {attribute!r}"
            )
        self._attributes.add(attribute)
        return qualify(self.aid, attribute)

    # -- published key material ---------------------------------------------------

    def version_key(self) -> VersionKey:
        """``VK_AID = α_AID`` — the AA's entire secret state."""
        return VersionKey(aid=self.aid, alpha=self._alpha, version=self._version)

    def authority_public_key(self) -> AuthorityPublicKey:
        """``PK_{o,AID} = e(g,g)^{α_AID}`` (used by owners for encryption)."""
        return AuthorityPublicKey(
            aid=self.aid, value=self.group.gt ** self._alpha, version=self._version
        )

    def public_attribute_keys(self) -> PublicAttributeKeys:
        """``PK_{x,AID} = g^{α_AID·H(x)}`` for every managed attribute."""
        elements = {}
        for name in self._attributes:
            qualified_name = qualify(self.aid, name)
            exponent = self._alpha * self.group.hash_to_scalar(qualified_name)
            elements[qualified_name] = self.group.g ** exponent
        return PublicAttributeKeys(
            aid=self.aid, elements=elements, version=self._version
        )

    # -- owner registration ----------------------------------------------------------

    def register_owner(self, owner_secret: OwnerSecretKey) -> None:
        """Receive ``SK_o`` from an owner (the paper's secure channel)."""
        self._owner_keys[owner_secret.owner_id] = owner_secret

    # -- KeyGen -------------------------------------------------------------------

    def keygen(self, user_public_key: UserPublicKey, attributes,
               owner_id: str) -> UserSecretKey:
        """Issue ``SK_{UID,AID}`` for a user's attribute set (Phase 2).

        ``attributes`` are unqualified names that must all be managed by
        this authority; the authority "first authenticates whether the
        user has any attributes managed by this authority", which in this
        simulation is the caller's responsibility (the system layer
        routes requests through the AA's own registry).
        """
        owner_secret, attribute_set = self._keygen_inputs(owner_id,
                                                          attributes)
        pk_uid = user_public_key.element
        # PK_UID is exponentiated once per attribute plus once for K; a
        # fixed-base table amortizes across this KeyGen and any later
        # ones for the same user (other owners, re-keying).
        self.group.register_g1_base(pk_uid)
        # K = PK_UID^{r/β} · (g^{1/β})^α = g^{(u·r + α)/β}, as one
        # two-term multi-exponentiation (still counted as 2 G exps).
        k = self.group.multiexp_g1(
            (pk_uid, owner_secret.g_inv_beta),
            (owner_secret.r_over_beta, self._alpha),
        )
        attribute_keys = {}
        for name in attribute_set:
            qualified_name = qualify(self.aid, name)
            exponent = self._alpha * self.group.hash_to_scalar(qualified_name)
            attribute_keys[qualified_name] = pk_uid ** exponent
        self.note_issued(user_public_key, owner_id, attribute_keys)
        return UserSecretKey(
            uid=user_public_key.uid,
            aid=self.aid,
            owner_id=owner_id,
            k=k,
            attribute_keys=attribute_keys,
            version=self._version,
        )

    def _keygen_inputs(self, owner_id: str, attributes) -> tuple:
        """KeyGen's input check, shared by :meth:`keygen` and
        :meth:`keygen_session_material`: the owner's secret key and the
        requested attribute set, which this authority must manage."""
        owner_secret = self._owner_keys.get(owner_id)
        if owner_secret is None:
            raise SchemeError(
                f"authority {self.aid!r} has no secret key from owner {owner_id!r}"
            )
        attribute_set = set(attributes)
        unknown = attribute_set - self._attributes
        if unknown:
            raise SchemeError(
                f"authority {self.aid!r} does not manage {sorted(unknown)}"
            )
        return owner_secret, attribute_set

    def note_issued(self, user_public_key: UserPublicKey, owner_id: str,
                    qualified_names) -> None:
        """Record one key issuance in the AA's registries.

        The single registry entry point shared by :meth:`keygen` and
        :class:`repro.fastpath.keygen.KeyGenSession`, so ReKey's
        holdings scan sees identical state whichever path issued the
        key.
        """
        self._user_public[user_public_key.uid] = user_public_key
        self._issued[(user_public_key.uid, owner_id)] = frozenset(
            qualified_names
        )

    def keygen_session_material(self, owner_id: str, attributes) -> tuple:
        """Snapshot for a :class:`~repro.fastpath.keygen.KeyGenSession`.

        Validates the owner/attribute set exactly as :meth:`keygen`
        would, then returns ``(qualified names, exponents, K constant)``
        where ``exponents[0] = r/β`` (the ``K`` component's per-user
        exponent), ``exponents[1:]`` are ``α·H(x)`` per attribute in
        the returned name order, and the constant is ``(g^{1/β})^α`` —
        keeping ``α`` itself encapsulated in the authority.
        """
        owner_secret, attribute_set = self._keygen_inputs(owner_id,
                                                          attributes)
        qualified = tuple(sorted(
            qualify(self.aid, name) for name in attribute_set
        ))
        order = self.group.order
        exponents = [owner_secret.r_over_beta] + [
            self._alpha * self.group.hash_to_scalar(name) % order
            for name in qualified
        ]
        return qualified, exponents, owner_secret.g_inv_beta ** self._alpha

    def keygen_session(self, owner_id: str, attributes):
        """A cached :class:`~repro.fastpath.keygen.KeyGenSession` for
        bulk onboarding over a fixed attribute set.

        Sessions are keyed by (owner, attribute set) and snapshotted at
        the current key version; once :meth:`rekey` bumps the version
        the cached session goes stale and is rebuilt here under the
        fresh ``α`` (a stale session refuses to issue on its own).
        """
        from repro.fastpath.keygen import KeyGenSession

        cache_key = (owner_id, frozenset(attributes))
        session = self._keygen_sessions.get(cache_key)
        if session is not None and session.version == self._version:
            return session
        session = KeyGenSession(self, owner_id, attributes)
        if len(self._keygen_sessions) >= 32:
            self._keygen_sessions.pop(next(iter(self._keygen_sessions)))
        self._keygen_sessions[cache_key] = session
        return session

    def issued_attributes(self, uid: str, owner_id: str) -> frozenset:
        return self._issued.get((uid, owner_id), frozenset())

    def issued_registry(self) -> dict:
        """Snapshot of {(uid, owner id): qualified attribute set} issued so far."""
        return dict(self._issued)

    def user_public_key_on_file(self, uid: str) -> UserPublicKey:
        try:
            return self._user_public[uid]
        except KeyError:
            raise SchemeError(
                f"authority {self.aid!r} has no public key on file for {uid!r}"
            ) from None

    # -- ReKey (attribute revocation, phase 1) -----------------------------------------

    def rekey(self, revoked_uid: str, revoked_attributes) -> tuple:
        """Revoke attributes from a user; returns ``(new_keys, update_key)``.

        * draws a fresh version key ``α̃`` (bumping the version counter);
        * re-issues the revoked user's secret keys on the reduced set
          ``S̃ = S \\ revoked`` for every owner it held keys for
          (``new_keys`` maps owner id → :class:`UserSecretKey`);
        * returns the :class:`UpdateKey` ``(UK1 per owner, UK2)`` for
          everyone else.

        The caller (system layer) distributes the update key to all
        *other* users, all owners, and the server — "but the one with
        UID'" as the paper puts it.
        """
        revoked_attributes = set(revoked_attributes)
        unknown = revoked_attributes - self._attributes
        if unknown:
            raise RevocationError(
                f"authority {self.aid!r} does not manage {sorted(unknown)}"
            )
        holdings = [
            (owner_id, attrs)
            for (uid, owner_id), attrs in self._issued.items()
            if uid == revoked_uid
        ]
        if not holdings:
            raise RevocationError(
                f"user {revoked_uid!r} holds no keys from authority {self.aid!r}"
            )
        revoked_qualified = {qualify(self.aid, name) for name in revoked_attributes}
        old_alpha = self._alpha
        new_alpha = self.group.random_scalar()
        while new_alpha == old_alpha:
            new_alpha = self.group.random_scalar()  # pragma: no cover
        self._alpha = new_alpha
        old_version = self._version
        self._version += 1

        user_public = self._user_public.get(revoked_uid)
        if user_public is None:  # defensive: _issued implies _user_public
            raise RevocationError(f"no public key on file for {revoked_uid!r}")

        new_keys = {}
        for owner_id, held in holdings:
            reduced = {
                name.split(":", 1)[1] for name in (set(held) - revoked_qualified)
            }
            if reduced:
                new_keys[owner_id] = self.keygen(user_public, reduced, owner_id)
            else:
                # All attributes gone: drop the registry entry entirely.
                del self._issued[(revoked_uid, owner_id)]

        uk2 = new_alpha * invmod(old_alpha, self.group.order) % self.group.order
        delta = (new_alpha - old_alpha) % self.group.order
        uk1 = {
            owner_id: owner_secret.g_inv_beta ** delta
            for owner_id, owner_secret in self._owner_keys.items()
        }
        update_key = UpdateKey(
            aid=self.aid,
            uk1=uk1,
            uk2=uk2,
            from_version=old_version,
            to_version=self._version,
        )
        return new_keys, update_key


def apply_update_key(secret_key: UserSecretKey, update_key: UpdateKey) -> UserSecretKey:
    """Non-revoked user's key update (Section V-C, Key Update step 2).

    ``K̃ = K · UK1_owner`` and ``K̃_x = K_x^{UK2}`` — constant work in the
    number of system users, which is the efficiency point of the paper's
    revocation design.
    """
    if secret_key.aid != update_key.aid:
        raise RevocationError(
            f"update key is for authority {update_key.aid!r}, "
            f"secret key is from {secret_key.aid!r}"
        )
    if secret_key.version != update_key.from_version:
        raise RevocationError(
            f"secret key at version {secret_key.version} cannot apply update "
            f"{update_key.from_version}->{update_key.to_version}"
        )
    uk1 = update_key.uk1.get(secret_key.owner_id)
    if uk1 is None:
        raise RevocationError(
            f"update key carries no UK1 for owner {secret_key.owner_id!r}"
        )
    return UserSecretKey(
        uid=secret_key.uid,
        aid=secret_key.aid,
        owner_id=secret_key.owner_id,
        k=secret_key.k * uk1,
        attribute_keys={
            name: element ** update_key.uk2
            for name, element in secret_key.attribute_keys.items()
        },
        version=update_key.to_version,
    )


def apply_update_to_public_keys(public_keys: PublicAttributeKeys,
                                update_key: UpdateKey) -> PublicAttributeKeys:
    """Owner-side public-key roll-forward: ``PK̃_x = PK_x^{UK2}``."""
    if public_keys.aid != update_key.aid:
        raise RevocationError("update key and public attribute keys disagree on AID")
    if public_keys.version != update_key.from_version:
        raise RevocationError(
            f"public keys at version {public_keys.version} cannot apply update "
            f"{update_key.from_version}->{update_key.to_version}"
        )
    return PublicAttributeKeys(
        aid=public_keys.aid,
        elements={
            name: element ** update_key.uk2
            for name, element in public_keys.elements.items()
        },
        version=update_key.to_version,
    )


def apply_update_to_authority_public_key(public_key: AuthorityPublicKey,
                                         update_key: UpdateKey) -> AuthorityPublicKey:
    """Owner-side roll-forward of ``PK_{o,AID}``: ``PK̃_o = PK_o^{UK2}``."""
    if public_key.aid != update_key.aid:
        raise RevocationError("update key and authority public key disagree on AID")
    if public_key.version != update_key.from_version:
        raise RevocationError(
            f"authority public key at version {public_key.version} cannot apply "
            f"update {update_key.from_version}->{update_key.to_version}"
        )
    return AuthorityPublicKey(
        aid=public_key.aid,
        value=public_key.value ** update_key.uk2,
        version=update_key.to_version,
    )
