"""Table III: storage overhead on each entity, ours vs Lewko-Waters.

The "ours" column is cross-checked against a live deployment: the
server row is measured from the ciphertext the in-process cloud server
stored after an upload under the headline policy shape.
"""

from benchmarks.conftest import FIXED_ATTRS, FIXED_AUTHORITIES, PRESET
from repro.analysis.costmodel import SystemShape, table3_lewko, table3_ours
from repro.analysis.timing import and_policy
from repro.pairing.serialize import element_sizes
from repro.system.workflow import CloudStorageSystem

SHAPE = SystemShape(
    n_authorities=FIXED_AUTHORITIES,
    attrs_per_authority=FIXED_ATTRS,
    user_attrs_per_authority=FIXED_ATTRS,
    policy_rows=FIXED_AUTHORITIES * FIXED_ATTRS,
)


def _build_and_measure():
    with CloudStorageSystem(PRESET, seed=7) as system:
        names = [f"attr{i}" for i in range(FIXED_ATTRS)]
        aids = [f"aa{k}" for k in range(FIXED_AUTHORITIES)]
        for aid in aids:
            system.add_authority(aid, names)
        system.add_owner("owner")
        system.add_user("user")
        for aid in aids:
            system.issue_keys("user", aid, names, "owner")
        policy = and_policy(aids, FIXED_ATTRS)
        system.upload("owner", "record",
                      {"component": (b"\x00" * 64, policy)})
        # Server storage minus the symmetric body = the ABE ciphertext
        # bytes.
        record = system.server.store.get("record")
        component = record.component("component")
        return component.abe_ciphertext.element_size_bytes(system.group)


def test_table3(benchmark):
    sizes = element_sizes(PRESET)
    ours = table3_ours(SHAPE)
    lewko = table3_lewko(SHAPE)
    measured_server = benchmark(_build_and_measure)

    print(f"\n=== Table III — Storage overhead (bytes, preset {PRESET.name}) ===")
    header = f"{'Entity':<10} {'Ours':>10} {'Lewko':>10}  formula (ours)"
    print(header)
    print("-" * 72)
    for entity in ("authority", "owner", "user", "server"):
        print(f"{entity:<10} {ours[entity].bytes(sizes):>10} "
              f"{lewko[entity].bytes(sizes):>10}  {ours[entity].formula}")

    assert measured_server == ours["server"].bytes(sizes)
    # Paper claims: AA, owner and server storage strictly smaller; user
    # storage "almost the same" (ours is n_A·|G| larger).
    assert ours["authority"].bytes(sizes) < lewko["authority"].bytes(sizes)
    assert ours["owner"].bytes(sizes) < lewko["owner"].bytes(sizes)
    assert ours["server"].bytes(sizes) < lewko["server"].bytes(sizes)
    assert (
        ours["user"].bytes(sizes) - lewko["user"].bytes(sizes)
        == SHAPE.n_authorities * sizes.g1
    )


def test_table3_gap_grows_with_authorities(benchmark):
    """'Note that if more authorities involved in the system, our scheme
    incurs more less storage overhead than Lewko's scheme.'"""
    sizes = element_sizes(PRESET)

    def sweep():
        gaps = []
        for n_authorities in (2, 5, 10, 20):
            shape = SystemShape(
                n_authorities=n_authorities,
                attrs_per_authority=FIXED_ATTRS,
                user_attrs_per_authority=FIXED_ATTRS,
                policy_rows=n_authorities * FIXED_ATTRS,
            )
            ours_total = sum(
                cost.bytes(sizes) for cost in table3_ours(shape).values()
            )
            lewko_total = sum(
                cost.bytes(sizes) for cost in table3_lewko(shape).values()
            )
            gaps.append((n_authorities, lewko_total - ours_total))
        return gaps

    gaps = benchmark(sweep)
    print("\n=== Table III gap sweep (Lewko bytes - ours, total) ===")
    for n_authorities, gap in gaps:
        print(f"  n_A={n_authorities:<3} gap={gap} B")
    assert all(gap > 0 for _, gap in gaps)
    assert [gap for _, gap in gaps] == sorted(gap for _, gap in gaps)
