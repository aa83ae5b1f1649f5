#!/usr/bin/env python3
"""Three revocation philosophies, side by side (the paper's Section II).

* **Yang-Jia (this paper)** — immediate, attribute-level, untrusted
  server (proxy re-encryption with update tokens);
* **Hur-Noh** — immediate, but the server holds every attribute group
  key (trusted server, the assumption the paper rejects);
* **Pirretti** — untrusted server, but revocation waits for the epoch
  boundary and every user pays a per-epoch key refresh.

The script revokes the same logical capability in all three systems and
shows when (and whether) the revoked user actually loses access.

Run:  python examples/revocation_baselines.py
"""

from repro.baselines.bsw import BswScheme
from repro.baselines.hur import HurSystem, decrypt as hur_decrypt
from repro.baselines.pirretti import PirrettiSystem
from repro.ec import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    SchemeError,
)
from repro.pairing.group import PairingGroup
from repro.system import CloudStorageSystem

DENIED = (PolicyNotSatisfiedError, SchemeError, AuthorizationError)


def yang_jia():
    with CloudStorageSystem(TOY80, seed=1) as system:
        system.add_authority("aa", ["doctor"])
        system.add_owner("alice")
        system.add_user("bob")
        system.issue_keys("bob", "aa", ["doctor"], "alice")
        system.upload("alice", "rec", {"c": (b"secret", "aa:doctor")})
        assert system.read("bob", "rec", "c") == b"secret"
        system.revoke("aa", "bob", ["doctor"])
        try:
            system.read("bob", "rec", "c")
            return "STILL READABLE"
        except DENIED:
            return ("revoked IMMEDIATELY; server stayed untrusted "
                    "(proxy re-encryption)")


def hur_noh():
    group = PairingGroup(TOY80, seed=2)
    bsw = BswScheme(group)
    hur = HurSystem(bsw, capacity=8, seed=2)
    keks = hur.register_user("bob")
    hur.grant("bob", "doctor")
    stored = [hur.reencrypt(bsw.encrypt(group.random_gt(), "doctor"))]
    key = bsw.keygen(["doctor"])
    headers = {"doctor": hur.header("doctor")}
    hur_decrypt(group, stored[0], key, keks, headers, bsw)  # works
    headers["doctor"] = hur.revoke("bob", "doctor", stored)
    try:
        hur_decrypt(group, stored[0], key, keks, headers, bsw)
        return "STILL READABLE"
    except DENIED:
        return ("revoked IMMEDIATELY — but the server holds every "
                "attribute group key (trusted server)")


def pirretti():
    group = PairingGroup(TOY80, seed=3)
    system = PirrettiSystem(BswScheme(group))
    key = system.grant("bob", ["doctor"])
    message = group.random_gt()
    ciphertext = system.encrypt(message, "doctor")
    system.revoke("bob", ["doctor"])
    within_epoch = system.decrypt(ciphertext, key) == message
    system.advance_epoch()
    fresh = system.encrypt(group.random_gt(), "doctor")
    try:
        system.decrypt(fresh, key)
        after_epoch = "STILL READABLE"
    except DENIED:
        after_epoch = "revoked"
    return (f"within the epoch the revoked key "
            f"{'STILL DECRYPTS' if within_epoch else 'fails'}; "
            f"after rollover: {after_epoch} "
            f"(plus every user re-keyed each epoch)")


def main():
    print("Revoking 'doctor' from bob in three systems:\n")
    for name, runner in (
        ("Yang-Jia (this paper)", yang_jia),
        ("Hur-Noh [12]", hur_noh),
        ("Pirretti [26]", pirretti),
    ):
        print(f"  {name:<24} {runner()}")


if __name__ == "__main__":
    main()
