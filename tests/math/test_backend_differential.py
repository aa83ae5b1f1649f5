"""Cross-backend differential suite.

Every arithmetic backend — pure CPython, and gmpy2 when the
interpreter has it — must produce byte-identical field elements, curve
points and pairing values. Elements are plain
integers in every backend (wrapped at the modulus only), so equality of
encodings is the whole contract: a backend that drifts by even one bit
breaks recorded ciphertext replay.

The gmpy2 legs self-skip when the module is absent.
"""

import pytest

from repro.ec.params import PRESETS, TOY80
from repro.math.backend import gmpy2_available
from repro.math.field import PrimeField
from repro.pairing.group import PairingGroup

SEED = 0xD1FF

needs_gmpy2 = pytest.mark.skipif(
    not gmpy2_available(), reason="gmpy2 not installed"
)


def build_group(preset, *, backend="pure"):
    return PairingGroup(preset, seed=SEED, backend=backend)


def group_transcript(group, n_ops=8):
    """A deterministic encoding transcript over G1/GT/pairing ops.

    Same seed -> same scalar draws in every configuration, so the
    returned byte strings must be identical across backends.
    """
    out = []
    g = group.g
    scalars = group.random_scalars(n_ops)
    elements = [g ** k for k in scalars]
    for element in elements:
        out.append(element.to_bytes())
    product = elements[0]
    for element in elements[1:]:
        product = product * element
    out.append(product.to_bytes())
    out.append((product / elements[0]).to_bytes())
    out.append(product.inverse().to_bytes())
    paired = group.pair(elements[0], elements[1])
    out.append(paired.to_bytes())
    out.append((paired ** scalars[2]).to_bytes())
    out.append(group.pair_prod(
        [(elements[0], elements[1]), (elements[2], elements[3])]
    ).to_bytes())
    out.append(group.multiexp_g1(elements[:4], scalars[:4]).to_bytes())
    return out


@needs_gmpy2
class TestGmpy2Differential:
    @pytest.mark.parametrize("preset_name", ["TOY80", "SS512"])
    def test_group_transcripts_identical(self, preset_name):
        preset = PRESETS[preset_name]
        plain = group_transcript(build_group(preset))
        fast = group_transcript(build_group(preset, backend="gmpy2"))
        assert plain == fast

    def test_field_ops_match(self):
        plain = PrimeField(TOY80.p, check_prime=False, backend="pure")
        fast = PrimeField(TOY80.p, check_prime=False, backend="gmpy2")
        rng_pairs = [(3, 5), (TOY80.p - 2, TOY80.p - 1),
                     (0xDEADBEEF, 0xFEEDFACE)]
        for a, b in rng_pairs:
            assert int(fast.mul(a, b)) == plain.mul(a, b)
            assert int(fast.inv(a)) == plain.inv(a)
            assert fast.to_bytes(fast.mul(a, b)) \
                == plain.to_bytes(plain.mul(a, b))


class TestBackendResolution:
    def test_hard_gmpy2_request_raises_when_absent(self):
        if gmpy2_available():
            pytest.skip("gmpy2 installed: the hard request succeeds")
        from repro.errors import MathError
        from repro.math.backend import resolve_backend
        with pytest.raises(MathError):
            resolve_backend("gmpy2")

    def test_metadata_reflects_configuration(self):
        plain = build_group(TOY80)
        assert plain.backend_name == "pure"
        assert plain.field.backend_name == "pure"
