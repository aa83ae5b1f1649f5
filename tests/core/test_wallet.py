"""UserWallet: rekey delivery (Section V-C) and the decryption-session cache."""

import dataclasses
import itertools

import pytest

from repro.core.authority import apply_update_key
from repro.core.wallet import UserWallet
from repro.errors import AuthorizationError
from repro.system.meter import Meter


def _wallet(deployment, uid, hospital_attrs=(), trial_attrs=()):
    public_key, keys = deployment.add_user(uid, hospital_attrs, trial_attrs)
    wallet = UserWallet(deployment.scheme.group, uid)
    wallet.receive_public_key(public_key)
    for key in keys.values():
        wallet.receive_secret_key(key)
    return wallet


class TestAcceptRekey:
    def test_revoked_user_with_attributes_left_gets_the_reduced_key(
            self, deployment):
        victim = _wallet(deployment, "victim", ["doctor", "nurse"])
        result = deployment.scheme.revoke("hospital", "victim", ["doctor"])
        victim.accept_rekey(result)
        key = victim.secret_keys_for("alice")["hospital"]
        assert key is result.revoked_user_keys["alice"]
        assert key.version == result.update_key.to_version
        assert set(key.attribute_keys) == {"hospital:nurse"}

    def test_revoked_user_with_no_attributes_left_loses_the_key(
            self, deployment):
        victim = _wallet(deployment, "victim", ["doctor"], ["researcher"])
        result = deployment.scheme.revoke("hospital", "victim", ["doctor"])
        assert "alice" not in result.revoked_user_keys
        victim.accept_rekey(result)
        assert set(victim.secret_keys_for("alice")) == {"trial"}
        assert not victim.has_keys_from("hospital")

    def test_survivor_rolls_forward(self, deployment):
        survivor = _wallet(deployment, "survivor", ["doctor"])
        _wallet(deployment, "victim", ["doctor"])
        old = survivor.secret_keys_for("alice")["hospital"]
        result = deployment.scheme.revoke("hospital", "victim", ["doctor"])
        survivor.accept_rekey(result)
        rolled = survivor.secret_keys_for("alice")["hospital"]
        assert rolled.version == result.update_key.to_version
        assert rolled == apply_update_key(old, result.update_key)

    def test_survivor_of_an_owner_absent_from_uk1_keeps_its_key(
            self, deployment):
        survivor = _wallet(deployment, "survivor", ["doctor"])
        _wallet(deployment, "victim", ["doctor"])
        old = survivor.secret_keys_for("alice")["hospital"]
        result = deployment.scheme.revoke("hospital", "victim", ["doctor"])
        elsewhere = dataclasses.replace(
            result,
            update_key=dataclasses.replace(result.update_key, uk1={}),
        )
        survivor.accept_rekey(elsewhere)
        assert survivor.secret_keys_for("alice")["hospital"] is old

    def test_hardened_reissue_replaces_the_survivors_key(self, deployment):
        survivor = _wallet(deployment, "survivor", ["doctor", "nurse"])
        _wallet(deployment, "victim", ["doctor"])
        result = deployment.scheme.revoke("hospital", "victim", ["doctor"],
                                          hardened=True)
        survivor.accept_rekey(result)
        key = survivor.secret_keys_for("alice")["hospital"]
        assert key is result.reissued_keys[("survivor", "alice")]
        assert key.version == result.update_key.to_version


class TestSessionCache:
    def _ciphertext(self, deployment, policy):
        return deployment.owner.encrypt(
            deployment.scheme.random_message(), policy
        )

    def test_cache_stays_bounded(self, deployment):
        wallet = _wallet(deployment, "reader",
                         ["doctor", "nurse", "surgeon", "admin"],
                         ["researcher", "pi", "monitor"])
        labels = ["hospital:doctor", "hospital:nurse", "hospital:surgeon",
                  "trial:researcher", "trial:pi", "trial:monitor"]
        policies = [" OR ".join(combo)
                    for size in (1, 2, 3)
                    for combo in itertools.combinations(labels, size)]
        limit = UserWallet.MAX_DECRYPT_SESSIONS
        assert len(policies) > limit
        meter = Meter(deployment.scheme.group)
        for policy in policies[:limit + 1]:
            wallet.decryption_session_for(
                self._ciphertext(deployment, policy), meter
            )
        assert len(wallet.decrypt_sessions) == limit
        assert meter.counter("decrypt.session.miss") == limit + 1
        assert meter.counter("decrypt.session.evict") == 1

    def test_key_roll_rebuilds_the_session(self, deployment):
        reader = _wallet(deployment, "reader", ["doctor"])
        _wallet(deployment, "victim", ["doctor"])
        meter = Meter(deployment.scheme.group)
        before = self._ciphertext(deployment, "hospital:doctor")
        session = reader.decryption_session_for(before, meter)
        assert reader.decryption_session_for(before, meter) is session
        assert meter.counter("decrypt.session.hit") == 1

        result = deployment.scheme.revoke("hospital", "victim", ["doctor"])
        deployment.owner.apply_update_key(result.update_key)
        reader.accept_rekey(result)
        after = self._ciphertext(deployment, "hospital:doctor")
        rebuilt = reader.decryption_session_for(after, meter)
        assert rebuilt is not session
        assert meter.counter("decrypt.session.evict") == 1
        assert len(reader.decrypt_sessions) == 1
        message = rebuilt.decrypt(after)
        assert message == deployment.scheme.decrypt(
            after, reader.public_key, reader.secret_keys_for("alice")
        )

    def test_no_keys_for_the_owner_is_refused(self, deployment):
        wallet = _wallet(deployment, "stranger")
        ciphertext = self._ciphertext(deployment, "hospital:doctor")
        with pytest.raises(AuthorizationError):
            wallet.decryption_session_for(
                ciphertext, Meter(deployment.scheme.group)
            )
