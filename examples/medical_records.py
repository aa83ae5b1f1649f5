#!/usr/bin/env python3
"""The paper's motivating scenario: fine-grained medical-record sharing.

"A data owner may want to share medical data only with a user who has
the attribute of 'Doctor' issued by a medical organization and the
attribute 'Medical Researcher' issued by the administrator of a
clinical trial."

This example drives the full simulated cloud deployment (Fig. 1 of the
paper): a patient (the data owner) uploads a record split into
components of different sensitivity (the Fig. 2 layout), each under its
own cross-authority policy, and differently-privileged users see
different granularities of the data. The byte-metered network prints
Table-IV-style communication totals at the end.

Run:  python examples/medical_records.py
"""

from repro.ec import TOY80
from repro.errors import PolicyNotSatisfiedError
from repro.system import CloudStorageSystem


def try_read(system, uid, record, component):
    try:
        value = system.read(uid, record, component)
        return value.decode("utf-8")
    except PolicyNotSatisfiedError:
        return "(access denied)"


def main():
    with CloudStorageSystem(TOY80, seed=99) as system:

        # Two independent administrative domains.
        system.add_authority("hospital", ["doctor", "nurse", "billing"])
        system.add_authority("trial", ["researcher", "monitor"])

        # The patient owns her data and defines all policies herself.
        system.add_owner("patient-jane")

        # Staff with attributes from one or both domains.
        system.add_user("dr-smith")
        system.issue_keys("dr-smith", "hospital", ["doctor"], "patient-jane")
        system.issue_keys("dr-smith", "trial", ["researcher"], "patient-jane")

        system.add_user("nurse-kim")
        system.issue_keys("nurse-kim", "hospital", ["nurse"], "patient-jane")
        system.issue_keys("nurse-kim", "trial", ["monitor"], "patient-jane")

        system.add_user("accountant-lee")
        system.issue_keys("accountant-lee", "hospital", ["billing"],
                          "patient-jane")

        # One record, five components, five policies — the paper's example
        # granularity: {name, address, security number, employer, salary}.
        system.upload(
            "patient-jane",
            "jane-2026",
            {
                "name": (
                    b"Jane Doe",
                    "hospital:doctor OR hospital:nurse OR hospital:billing",
                ),
                "vitals": (
                    b"BP 120/80, HR 64",
                    "hospital:doctor OR hospital:nurse",
                ),
                "diagnosis": (
                    b"stage II, protocol B",
                    "hospital:doctor AND trial:researcher",
                ),
                "trial-notes": (
                    b"cohort 7, double-blind",
                    "trial:researcher OR trial:monitor",
                ),
                "invoice": (b"$12,400", "hospital:billing"),
            },
        )

        components = ["name", "vitals", "diagnosis", "trial-notes", "invoice"]
        users = ["dr-smith", "nurse-kim", "accountant-lee"]
        width = max(len(c) for c in components)

        print("Who sees what (fine-grained access, Fig. 2 layout):\n")
        header = f"{'component':<{width}}  " + "  ".join(
            f"{uid:<16}" for uid in users
        )
        print(header)
        print("-" * len(header))
        for component in components:
            row = f"{component:<{width}}  "
            for uid in users:
                # dr-smith holds keys from both AAs; others from a subset —
                # reads that need a missing AA key are denied upstream.
                try:
                    cell = try_read(system, uid, "jane-2026", component)
                except Exception:
                    cell = "(access denied)"
                row += f"{cell:<16}  "
            print(row)

        print("\nCommunication so far (byte-metered channels, cf. Table IV):")
        for (role_a, role_b), stats in sorted(system.meter.channels.items()):
            print(f"  {role_a:>6} <-> {role_b:<6} : "
                  f"{stats.messages:3d} messages, {stats.bytes:6d} bytes")

        print(f"\nCloud storage used: "
              f"{system.server.store.storage_bytes()} bytes "
              f"(ciphertexts only — the server never sees a content key)")


if __name__ == "__main__":
    main()
