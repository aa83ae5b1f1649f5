"""The paper-literal decrypt and the session form must agree everywhere.

The faithful Eq.-(1) path and the collapsed session are different
arithmetic over the same algebra; hypothesis drives random policies and
attribute assignments through both (plus the outsourcing path, which
runs the session over the blinded key bundle).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decrypt import decrypt
from repro.core.outsourcing import (
    make_transform_key,
    server_transform_many,
    user_finalize,
)
from repro.core.scheme import MultiAuthorityABE
from repro.ec.params import TOY80
from repro.fastpath import DecryptionSession
from repro.policy.ast import And, Attribute, Or

H_ATTRS = ["doctor", "nurse"]
T_ATTRS = ["researcher"]
UNIVERSE = [f"h:{a}" for a in H_ATTRS] + [f"t:{a}" for a in T_ATTRS]


@pytest.fixture(scope="module")
def world():
    scheme = MultiAuthorityABE(TOY80, seed=777888)
    h = scheme.setup_authority("h", H_ATTRS)
    t = scheme.setup_authority("t", T_ATTRS)
    owner = scheme.setup_owner("owner", [h, t])
    public = scheme.register_user("u")
    keys = {
        "h": h.keygen(public, H_ATTRS, "owner"),
        "t": t.keygen(public, T_ATTRS, "owner"),
    }
    return scheme, owner, public, keys


def _policies():
    leaf = st.sampled_from(UNIVERSE).map(Attribute)

    def extend(children):
        pairs = st.lists(children, min_size=2, max_size=3)
        return st.one_of(pairs.map(And), pairs.map(Or))

    return st.recursive(leaf, extend, max_leaves=4)


@settings(max_examples=15, deadline=None)
@given(policy=_policies())
def test_three_decryption_paths_agree(world, policy):
    scheme, owner, public, keys = world
    message = scheme.random_message()
    ciphertext = owner.encrypt(message, policy, require_injective_rho=False)
    group = scheme.group

    faithful = decrypt(group, ciphertext, public, keys)
    fast = DecryptionSession(group, ciphertext, public, keys).decrypt(
        ciphertext)
    transform, retrieval = make_transform_key(group, public, keys)
    (partial,) = server_transform_many(group, [ciphertext], transform)
    outsourced = user_finalize(ciphertext, partial, retrieval)
    assert faithful.to_bytes() == fast.to_bytes()
    assert faithful == outsourced == message
