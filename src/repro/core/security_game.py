"""The Section III-B security game, executable.

The paper defines security through a game between a challenger and an
adversary who may *statically corrupt* a set of authorities and then
*adaptively* query user secret keys: Setup → Secret Key Query Phase 1 →
Challenge → Secret Key Query Phase 2 → Guess. The challenge access
structure (A*, ρ) must satisfy the span constraint: with ``V`` the rows
labelled by corrupted authorities' attributes and ``V_UID`` the rows
labelled by attributes queried for a user, ``span(V ∪ V_UID)`` must not
contain ``(1, 0, …, 0)`` for any queried UID.

This module is not a proof — it is the *experiment*: a faithful
challenger that enforces exactly those constraints (rejecting illegal
adversaries), hands corrupted authorities' secret state to the
adversary, and lets you measure an adversary's empirical advantage.
Tests run a guessing adversary (advantage ≈ 0) and verify that every
way of cheating the constraints is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.ciphertext import Ciphertext
from repro.core.keys import UserSecretKey, VersionKey
from repro.core.owner import DataOwner
from repro.errors import SchemeError
from repro.math import linalg
from repro.pairing.group import GTElement, PairingGroup
from repro.policy.lsss import lsss_from_policy


class GameError(SchemeError):
    """The adversary violated the rules of the security game."""


@dataclass
class CorruptedAuthorityView:
    """Everything a corrupted authority's internal state exposes.

    Note the structural consequence the game inherits from the scheme:
    authorities hold every registered owner's ``SK_o``, so corrupting one
    authority also leaks those (the challenge constraint accounts for
    corrupted-authority rows precisely because the adversary can mint
    keys for them at will).
    """

    version_key: VersionKey
    owner_secrets: dict
    attributes: frozenset


@dataclass
class SecurityGame:
    """Challenger state for one run of the game."""

    group: PairingGroup
    owner: DataOwner
    authorities: dict                  # aid -> AttributeAuthority
    corrupted: frozenset               # AIDs under adversarial control
    _ca: CertificateAuthority = None
    _queries: dict = field(default_factory=dict)   # uid -> set(qualified)
    _user_public: dict = field(default_factory=dict)
    _challenge_matrix: object = None
    _challenge_bit: int = None
    _finished: bool = False

    # -- construction ------------------------------------------------------------

    @classmethod
    def setup(cls, params, authority_layout: dict, corrupted,
              seed=None) -> "SecurityGame":
        """Global Setup: build the system and corrupt the chosen AAs.

        ``authority_layout`` maps AID → iterable of attribute names;
        ``corrupted`` is the adversary's statically chosen subset S_A'.
        """
        corrupted = frozenset(corrupted)
        unknown = corrupted - set(authority_layout)
        if unknown:
            raise GameError(f"cannot corrupt unknown authorities {sorted(unknown)}")
        if corrupted == set(authority_layout):
            raise GameError("at least one authority must remain honest")
        group = PairingGroup(params, seed=seed)
        ca = CertificateAuthority(group)
        authorities = {}
        for aid, attributes in authority_layout.items():
            ca.register_authority(aid)
            authorities[aid] = AttributeAuthority(group, aid, attributes)
        ca.register_owner("owner")
        owner = DataOwner(group, "owner")
        for authority in authorities.values():
            authority.register_owner(owner.secret_key)
            owner.learn_authority(
                authority.authority_public_key(),
                authority.public_attribute_keys(),
            )
        return cls(
            group=group,
            owner=owner,
            authorities=authorities,
            corrupted=corrupted,
            _ca=ca,
        )

    # -- what the adversary receives at setup ----------------------------------------

    def public_view(self) -> dict:
        """Public keys of every authority (honest and corrupted)."""
        return {
            aid: (
                authority.authority_public_key(),
                authority.public_attribute_keys(),
            )
            for aid, authority in self.authorities.items()
        }

    def corrupted_view(self) -> dict:
        """Secret state of the corrupted authorities."""
        view = {}
        for aid in self.corrupted:
            authority = self.authorities[aid]
            view[aid] = CorruptedAuthorityView(
                version_key=authority.version_key(),
                owner_secrets={"owner": self.owner.secret_key},
                attributes=authority.attributes,
            )
        return view

    # -- key queries ------------------------------------------------------------------

    def _violates_constraint(self, matrix, queried_qualified) -> bool:
        """span(V ∪ V_UID) ∋ (1,0,…,0)?"""
        rows = []
        for index, label in enumerate(matrix.row_labels):
            aid = label.split(":", 1)[0]
            if aid in self.corrupted or label in queried_qualified:
                rows.append(list(matrix.rows[index]))
        if not rows:
            return False
        target = [1] + [0] * (matrix.n_cols - 1)
        return linalg.in_span(rows, target, self.group.order)

    def secret_key_query(self, uid: str, aid: str,
                         attributes) -> UserSecretKey:
        """Adaptive key query (Phases 1 and 2).

        Queries to corrupted authorities are pointless (the adversary
        holds their state) and rejected for game hygiene; queries that
        would let the combined key material decrypt the challenge are
        rejected per the game definition.
        """
        if self._finished:
            raise GameError("the game is over")
        if aid in self.corrupted:
            raise GameError(
                f"authority {aid!r} is corrupted; generate the key yourself"
            )
        authority = self.authorities.get(aid)
        if authority is None:
            raise GameError(f"unknown authority {aid!r}")
        if uid not in self._user_public:
            self._user_public[uid] = self._ca.register_user(uid)
        prospective = set(self._queries.get(uid, set()))
        prospective.update(
            authority.qualified(name) for name in attributes
        )
        if self._challenge_matrix is not None and self._violates_constraint(
            self._challenge_matrix, prospective
        ):
            raise GameError(
                "query rejected: the requested keys (with corrupted "
                "authorities) would decrypt the challenge"
            )
        key = authority.keygen(self._user_public[uid], attributes, "owner")
        self._queries[uid] = prospective
        return key

    def user_public_key(self, uid: str):
        if uid not in self._user_public:
            self._user_public[uid] = self._ca.register_user(uid)
        return self._user_public[uid]

    # -- challenge ----------------------------------------------------------------------

    def challenge(self, message0: GTElement, message1: GTElement,
                  policy) -> Ciphertext:
        """Flip the coin and encrypt one of the two messages."""
        if self._challenge_matrix is not None:
            raise GameError("challenge already issued")
        matrix = lsss_from_policy(policy)
        # The structure must not be decryptable by corrupted rows alone
        # or by any prior query set.
        for uid, queried in [("", set())] + list(self._queries.items()):
            if self._violates_constraint(matrix, queried):
                raise GameError(
                    "illegal challenge: the access structure is satisfied "
                    f"by corrupted authorities plus queries of {uid!r}"
                    if uid else
                    "illegal challenge: the access structure is satisfied "
                    "by corrupted authorities alone"
                )
        self._challenge_matrix = matrix
        self._challenge_bit = self.group.rng.randrange(2)
        chosen = message1 if self._challenge_bit else message0
        return self.owner.encrypt(chosen, policy)

    def guess(self, bit: int) -> bool:
        """Phase Guess: returns whether the adversary won this run."""
        if self._challenge_matrix is None:
            raise GameError("no challenge was issued")
        if self._finished:
            raise GameError("the game is over")
        self._finished = True
        return int(bit) == self._challenge_bit


def empirical_advantage(params, adversary, trials: int, seed: int = 0,
                        **setup_kwargs) -> float:
    """Run ``adversary(game, trial_index) -> bit`` many times.

    Returns ``|wins/trials - 1/2|`` — the empirical advantage. Each trial
    gets a fresh challenger seeded deterministically from ``seed``.
    """
    wins = 0
    for trial in range(trials):
        game = SecurityGame.setup(params, seed=seed * 1_000_003 + trial,
                                  **setup_kwargs)
        if game.guess(adversary(game, trial)):
            wins += 1
    return abs(wins / trials - 0.5)
