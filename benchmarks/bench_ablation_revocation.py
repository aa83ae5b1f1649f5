"""Ablation A: attribute-revocation costs.

Not a paper figure, but the paper's Section V-C claims "our method only
need to re-encrypt part of the ciphertext [which] can greatly improve
the computation efficiency of the attribute revocation". This harness
quantifies that and the related design choices:

* ReEncrypt (partial, 1 pairing + touched rows) vs a full re-encryption
  (what a scheme without update tokens would pay: one fresh Encrypt);
* ReKey standard (O(1) update key) vs hardened (per-user re-issue);
* the faithful per-row Decrypt vs a one-shot decryption session (the
  2-replay collapse of Eq. (1) by bilinearity);
* Hur-Noh revocation header size (KEK-tree min cover) for context.
"""

import pytest

from benchmarks.conftest import PRESET, run_once
from repro.baselines.bsw import BswScheme
from repro.baselines.hur import HurSystem
from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.decrypt import decrypt
from repro.core.owner import DataOwner
from repro.core.reencrypt import reencrypt, rows_touched
from repro.core.revocation import rekey_hardened, rekey_standard
from repro.fastpath import DecryptionSession
from repro.pairing.group import PairingGroup

N_ATTRS = 10
N_USERS = 8


class _World:
    """A deployment with one authority, many users, one big ciphertext."""

    def __init__(self):
        self.group = PairingGroup(PRESET, seed=21)
        ca = CertificateAuthority(self.group)
        names = [f"a{i}" for i in range(N_ATTRS)]
        ca.register_authority("aa")
        self.authority = AttributeAuthority(self.group, "aa", names)
        self.owner = DataOwner(self.group, "owner")
        self.authority.register_owner(self.owner.secret_key)
        self.owner.learn_authority(
            self.authority.authority_public_key(),
            self.authority.public_attribute_keys(),
        )
        self.users = {}
        for i in range(N_USERS):
            uid = f"u{i}"
            public = ca.register_user(uid)
            self.users[uid] = (
                public, self.authority.keygen(public, names, "owner")
            )
        self.policy = " AND ".join(f"aa:a{i}" for i in range(N_ATTRS))
        self.message = self.group.random_gt()
        self.ciphertext = self.owner.encrypt(self.message, self.policy)


@pytest.fixture(scope="module")
def world():
    return _World()


def test_rekey_standard(benchmark, world):
    benchmark.group = "ablation rekey"
    snapshot = world.authority.issued_registry()
    result = run_once(
        benchmark, rekey_standard, world.authority, "u0", ["a0"]
    )
    assert result.update_key.to_version == world.authority.version
    # restore u0 and re-sync the owner's key cache for later benches
    public, _ = world.users["u0"]
    world.authority.keygen(public, [f"a{i}" for i in range(N_ATTRS)], "owner")
    world.owner.learn_authority(
        world.authority.authority_public_key(),
        world.authority.public_attribute_keys(),
    )
    assert set(world.authority.issued_registry()) == set(snapshot)


def test_rekey_hardened(benchmark, world):
    benchmark.group = "ablation rekey"
    result = run_once(
        benchmark, rekey_hardened, world.authority, "u1", ["a0"]
    )
    # O(users) work instead of O(1): every other holder re-issued.
    assert len(result.reissued_keys) == N_USERS - 1
    public, _ = world.users["u1"]
    world.authority.keygen(public, [f"a{i}" for i in range(N_ATTRS)], "owner")
    world.owner.learn_authority(
        world.authority.authority_public_key(),
        world.authority.public_attribute_keys(),
    )


def test_partial_reencrypt_vs_full(benchmark, world):
    """The paper's claim: partial re-encryption beats re-encrypting all."""
    benchmark.group = "ablation reencrypt"
    result = rekey_standard(world.authority, "u2", ["a0"])
    update_key = result.update_key
    ciphertext = world.owner.encrypt(world.message, world.policy)
    update_info = world.owner.update_info(ciphertext, update_key)
    world.owner.apply_update_key(update_key)

    updated = run_once(
        benchmark, reencrypt, world.group, ciphertext, update_key,
        update_info,
    )
    assert updated.version_of("aa") == update_key.to_version
    assert rows_touched(ciphertext, "aa") == N_ATTRS


def test_full_reencrypt_baseline(benchmark, world):
    """What a naive design pays: a complete fresh encryption."""
    benchmark.group = "ablation reencrypt"
    ciphertext = run_once(
        benchmark, world.owner.encrypt, world.message, world.policy
    )
    assert ciphertext.n_rows == N_ATTRS


def _fresh_decryption_setup(world):
    """Key and ciphertext at the authority's *current* version (earlier
    benches in this module have run ReKey several times)."""
    public, _ = world.users["u7"]
    keys = world.authority.keygen(
        public, [f"a{i}" for i in range(N_ATTRS)], "owner"
    )
    ciphertext = world.owner.encrypt(world.message, world.policy)
    return public, keys, ciphertext


def test_decrypt_faithful(benchmark, world):
    benchmark.group = "ablation decrypt"
    public, keys, ciphertext = _fresh_decryption_setup(world)
    message = run_once(
        benchmark, decrypt, world.group, ciphertext, public, {"aa": keys}
    )
    assert message == world.message


def test_decrypt_one_shot_session(benchmark, world):
    benchmark.group = "ablation decrypt"
    public, keys, ciphertext = _fresh_decryption_setup(world)

    def one_shot():
        return DecryptionSession(
            world.group, ciphertext, public, {"aa": keys}
        ).decrypt(ciphertext)

    message = run_once(benchmark, one_shot)
    assert message == world.message


def test_hur_header_cost(benchmark, world):
    """Context: Hur-Noh pays an O(log n) header per revocation (and
    trusts the server with every group key)."""
    benchmark.group = "ablation hur"
    bsw = BswScheme(world.group)
    hur = HurSystem(bsw, capacity=64, seed=3)
    for i in range(48):
        hur.register_user(f"h{i}")
        hur.grant(f"h{i}", "attr")
    stored = [hur.reencrypt(bsw.encrypt(world.group.random_gt(), "attr"))]

    header = run_once(benchmark, hur.revoke, "h0", "attr", stored)
    print(f"\n[ablation] Hur header cover size after revocation: "
          f"{header.cover_size} wrapped keys "
          f"(vs our update key: 1 G element/owner + 1 scalar)")
    assert header.cover_size >= 1
