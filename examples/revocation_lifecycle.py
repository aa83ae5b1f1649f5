#!/usr/bin/env python3
"""Attribute revocation end-to-end: the paper's protocol, its efficiency,
its published weakness, and the hardened variant.

Walks through Section V-C on a live deployment:

1. revoke one attribute from one user (ReKey at the AA);
2. the revoked user loses exactly that capability — other attributes
   keep working (attribute-level, not user-level, revocation);
3. the server re-encrypts by proxy (ReEncrypt) so newly joined users can
   still read OLD data — without the server ever decrypting;
4. only the rows of the re-keyed authority change (partial update);
5. the documented vulnerability: a revoked user who obtains the
   broadcast UK2 from any survivor rolls its old key forward;
6. the hardened variant closes that hole by re-issuing survivor keys.

Run:  python examples/revocation_lifecycle.py
"""

from repro.ec import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    SchemeError,
)
from repro.system import CloudStorageSystem

DENIED = (PolicyNotSatisfiedError, SchemeError, AuthorizationError)


def read(system, uid, record, component):
    try:
        return system.read(uid, record, component).decode("utf-8")
    except DENIED as exc:
        return f"DENIED ({type(exc).__name__})"


def main():
    with CloudStorageSystem(TOY80, seed=2012) as system:
        system.add_authority("hospital", ["doctor", "nurse"])
        system.add_authority("trial", ["researcher"])
        system.add_owner("alice")

        for uid, hospital_attrs in (("bob", ["doctor", "nurse"]),
                                    ("carol", ["doctor"])):
            system.add_user(uid)
            system.issue_keys(uid, "hospital", hospital_attrs, "alice")
            system.issue_keys(uid, "trial", ["researcher"], "alice")

        system.upload(
            "alice", "rec",
            {
                "diagnosis": (b"stage II",
                              "hospital:doctor AND trial:researcher"),
                "vitals": (b"BP 120/80",
                           "hospital:nurse OR hospital:doctor"),
            },
        )

        print("=== Before revocation ===")
        for uid in ("bob", "carol"):
            print(f"  {uid:<6} diagnosis: "
                  f"{read(system, uid, 'rec', 'diagnosis')}")

        # --- 1-2: revoke bob's 'doctor' (he keeps 'nurse') ----------------
        print("\n=== Revoke bob's hospital:doctor (paper's protocol) ===")
        result = system.revoke("hospital", "bob", ["doctor"])
        print(f"  authority version: 0 -> {result.update_key.to_version}")
        print(f"  bob    diagnosis: "
              f"{read(system, 'bob', 'rec', 'diagnosis')}")
        print(f"  bob    vitals   : {read(system, 'bob', 'rec', 'vitals')}"
              "   <- nurse attribute survives: attribute-level revocation")
        print(f"  carol  diagnosis: "
              f"{read(system, 'carol', 'rec', 'diagnosis')}"
              "   <- survivor updated via UK, O(1) work")

        # --- 3: backward compatibility for new users ----------------------
        system.add_user("dave")
        system.issue_keys("dave", "hospital", ["doctor"], "alice")
        system.issue_keys("dave", "trial", ["researcher"], "alice")
        print(f"  dave (joined AFTER revocation) reads re-encrypted OLD "
              f"data: "
              f"{read(system, 'dave', 'rec', 'diagnosis')}")

        # --- 5: the published weakness -------------------------------------
        print("\n=== Published weakness: UK2 leaks to a revoked user ===")
        # A revoked user who kept its pre-revocation key and obtains the
        # broadcast update key from any colluding survivor (or the
        # server, which the paper also sends UK2 to) computes K_x^{UK2}
        # and regains every revoked capability.
        update_key = result.update_key
        print("  (see tests/core/test_revocation.py::TestKnownVulnerability "
              "for")
        print("   the executable proof that K_x^{UK2} restores revoked "
              "access)")
        print(f"  UK2 is a bare Z_p ratio broadcast to every survivor: "
              f"{str(update_key.uk2)[:24]}...")

        # --- 6: hardened variant ------------------------------------------
        print("\n=== Hardened revocation (UK2 never leaves owner channel) ===")
        result2 = system.revoke("trial", "carol", ["researcher"],
                                hardened=True)
        print(f"  survivors re-issued directly: "
              f"{sorted(uid for uid, _ in result2.reissued_keys)}")
        print(f"  carol  diagnosis: "
              f"{read(system, 'carol', 'rec', 'diagnosis')}")
        print(f"  dave   diagnosis: "
              f"{read(system, 'dave', 'rec', 'diagnosis')}")
        print(f"  bob    vitals   : {read(system, 'bob', 'rec', 'vitals')}"
              "   <- unrelated authority untouched")


if __name__ == "__main__":
    main()
