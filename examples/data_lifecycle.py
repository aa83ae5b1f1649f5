#!/usr/bin/env python3
"""Full data-management lifecycle on the simulated cloud.

Beyond the paper's core protocols, a usable deployment needs day-two
operations. This example exercises them all:

* the owner reads its OWN data back without any ABE keys (the ledger's
  encryption exponent strips the blinding directly);
* the owner updates a component's data — and tightens its policy — with
  fresh keys throughout;
* policy cost estimation before encrypting (rows, bytes, exps), and the
  expand-vs-insert threshold decision;
* record deletion, and the audit log of everything that happened.

Run:  python examples/data_lifecycle.py
"""

from repro.ec import TOY80
from repro.errors import PolicyNotSatisfiedError
from repro.pairing.serialize import element_sizes
from repro.policy.estimate import cheapest_threshold_method, estimate_policy
from repro.system import AuditLog, CloudStorageSystem


def main():
    with CloudStorageSystem(TOY80, seed=77) as system:
        system.add_authority("hr", ["manager", "payroll", "it"])
        system.add_owner("acme")
        system.add_user("pat")
        system.issue_keys("pat", "hr", ["manager"], "acme")

        print("=== Estimate before encrypting ===")
        sizes = element_sizes(TOY80)
        for policy in ("hr:manager OR hr:payroll",
                       "2 of (hr:manager, hr:payroll, hr:it)"):
            best = cheapest_threshold_method(policy, sizes)
            naive = estimate_policy(policy, sizes)
            print(f"  {policy}")
            print(f"    expand: {naive.lsss_rows:3d} rows, "
                  f"{naive.ciphertext_bytes} B; best method: "
                  f"{best.threshold_method} ({best.lsss_rows} rows, "
                  f"{best.ciphertext_bytes} B)")

        system.upload("acme", "salaries", {
            "summary": (b"Q2 totals: $1.2M", "hr:manager OR hr:payroll"),
        })

        print("\n=== Owner self-read (no ABE keys) ===")
        print(f"  acme reads own data: "
              f"{system.read_own('acme', 'salaries', 'summary').decode()}")

        print("\n=== Component update with policy tightening ===")
        system.update_component(
            "acme", "salaries", "summary",
            b"Q2 totals: $1.2M (restated)", "hr:payroll",
        )
        print(f"  new payload stored; manager pat now reads: ", end="")
        try:
            system.read("pat", "salaries", "summary")
            print("!! policy change failed")
        except PolicyNotSatisfiedError:
            print("denied (policy tightened to payroll-only)")
        system.issue_keys("pat", "hr", ["manager", "payroll"], "acme")
        print(f"  after payroll grant: "
              f"{system.read('pat', 'salaries', 'summary').decode()}")

        print("\n=== Deletion ===")
        system.delete_record("acme", "salaries")
        print(f"  records on server: "
              f"{system.server.store.record_ids() or '[]'}")

        print("\n=== Audit trail (metadata only, payload-free) ===")
        audit = AuditLog(system.meter)
        print(f"  {len(audit)} transfers; kinds: "
              f"{', '.join(sorted(audit.kinds()))}")
        for talker in audit.top_talkers(limit=3):
            print(f"  {talker.entity:<14} sent {talker.sent_bytes:5d} B in "
                  f"{talker.sent_messages:2d} msgs, received "
                  f"{talker.received_bytes:5d} B")


if __name__ == "__main__":
    main()
