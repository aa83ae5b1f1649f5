"""High-level pairing-group API: G, GT, Z_r and the bilinear map.

:class:`PairingGroup` is the facade every scheme in this library builds
on. It wraps the curve/pairing substrate in two small element classes
written *multiplicatively* — CP-ABE papers (including the one reproduced
here) write the source group multiplicatively, so ``a * b`` is the group
operation and ``a ** k`` is exponentiation, even though the underlying
group is an elliptic curve.

Example::

    group = PairingGroup(TOY80, seed=1)
    s = group.random_scalar()
    lhs = group.pair(group.g ** s, group.g)
    rhs = group.pair(group.g, group.g) ** s
    assert lhs == rhs
"""

from __future__ import annotations

import hashlib
import random

from repro.ec.curve import (
    _JAC_INFINITY,
    INFINITY,
    SupersingularCurve,
    _jac_add,
)
from repro.ec.batch_affine import batch_same_scalar_mults
from repro.ec.params import TypeAParams
from repro.errors import MathError
from repro.math.field import PrimeField
from repro.math.field_ext import QuadraticExtension
from repro.pairing.miller import final_exponentiation, miller_loop

# Caps on the per-group precomputation caches; eviction is oldest-first.
# Each fixed-base table is ~75 KB at SS512 sizes. Each prepared pairing
# is ~90 KB (tracemalloc over 20 builds), so 64 of them bound that cache
# near 6 MB: a hot read set needs ~8 and a revocation epoch ~9, while a
# cold one churns through sessions whose own references keep their
# prepared lines alive, so a larger cap only adds server memory.
MAX_G1_TABLES = 256
MAX_GT_TABLES = 256
MAX_PREPARED_PAIRINGS = 64
MAX_HASH_POINT_CACHE = 4096

# Per-process registry of unpickled groups, keyed by (class, parameter
# ints). Shipping a PairingGroup to a ProcessPoolExecutor worker moves
# only the parameter integers (~a few hundred bytes); the worker
# rebuilds the group once and then reuses it — with all its lazily
# accumulated fixed-base tables and prepared pairings — for every later
# chunk addressed to the same parameters.
_GROUP_REGISTRY = {}


def _rebuild_group(cls, r: int, p: int, generator: tuple, name: str,
                   backend: str = "auto"):
    """Reconstruct (or fetch the per-process instance of) a pickled group.

    Presets resolve to the module singletons in
    :data:`repro.ec.params.PRESETS` so element equality — which compares
    ``params`` by identity — keeps working across a pickle round-trip
    within one process. The arithmetic backend name travels with the
    pickle, so CryptoPool workers and background refill processes
    compute with the same backend as the parent (``auto`` re-resolves
    per process: a worker without gmpy2 degrades to pure and still
    produces byte-identical results).
    """
    key = (cls, r, p, generator, backend)
    group = _GROUP_REGISTRY.get(key)
    if group is None:
        from repro.ec.params import PRESETS, TypeAParams

        preset = PRESETS.get(name)
        if preset is not None and (preset.r, preset.p, preset.generator) == (
            r, p, generator
        ):
            params = preset
        else:
            params = TypeAParams(r=r, p=p, generator=generator, name=name)
        group = cls(params, backend=backend)
        _GROUP_REGISTRY[key] = group
    return group


class OperationCounter:
    """Tallies of the dominant group operations performed through a group.

    Used to validate the paper-facing operation-count models
    (:mod:`repro.analysis.costmodel`) against what the implementation
    actually does: tests run Encrypt/Decrypt between ``reset()`` calls
    and compare. Each multi-pairing counts one pairing per input pair
    (its Miller loops) even though the final exponentiation is shared.
    """

    __slots__ = ("pairings", "g1_exponentiations", "gt_exponentiations",
                 "fp_muls", "fp_invs")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pairings = 0
        self.g1_exponentiations = 0
        self.gt_exponentiations = 0
        # Base-field telemetry: multiplications/inversions routed
        # through PrimeField methods. The inlined hot loops (curve.py,
        # miller.py) deliberately bypass the counter — instrumenting
        # them would slow the operations being measured — so these
        # tally the *managed* arithmetic: field API calls and batch
        # inversions.
        self.fp_muls = 0
        self.fp_invs = 0

    def snapshot(self) -> dict:
        return {
            "pairings": self.pairings,
            "g1_exponentiations": self.g1_exponentiations,
            "gt_exponentiations": self.gt_exponentiations,
            "fp_muls": self.fp_muls,
            "fp_invs": self.fp_invs,
        }

    def __repr__(self) -> str:
        return (
            f"OperationCounter(pair={self.pairings}, "
            f"g1^={self.g1_exponentiations}, gt^={self.gt_exponentiations})"
        )


class G1Element:
    """An element of the source group G (order r), multiplicative notation."""

    __slots__ = ("group", "point")

    def __init__(self, group: "PairingGroup", point):
        self.group = group
        self.point = point

    def __mul__(self, other: "G1Element") -> "G1Element":
        return G1Element(self.group, self.group.curve.add(self.point, other.point))

    def __truediv__(self, other: "G1Element") -> "G1Element":
        return G1Element(self.group, self.group.curve.sub(self.point, other.point))

    def __pow__(self, exponent: int) -> "G1Element":
        group = self.group
        group.counter.g1_exponentiations += 1
        exponent %= group.order
        table = group._g1_table_for(self.point)
        if table is not None:
            return G1Element(group, table.multiply(exponent))
        return G1Element(group, group.curve.mul(self.point, exponent))

    def inverse(self) -> "G1Element":
        return G1Element(self.group, self.group.curve.neg(self.point))

    def is_identity(self) -> bool:
        return self.point is INFINITY

    def to_bytes(self) -> bytes:
        return self.group.encode_g1(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, G1Element)
            and self.group.params is other.group.params
            and self.point == other.point
        )

    def __hash__(self) -> int:
        return hash(("G1", self.point))

    def __repr__(self) -> str:
        if self.point is INFINITY:
            return "G1(identity)"
        return f"G1(x=...{self.point[0] & 0xFFFF:04x})"


class GTElement:
    """An element of the target group GT ⊂ F_p²^* (order r)."""

    __slots__ = ("group", "value")

    def __init__(self, group: "PairingGroup", value: tuple):
        self.group = group
        self.value = value

    def __mul__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.group, self.group.ext.mul(self.value, other.value))

    def __truediv__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.group, self.group.ext.div(self.value, other.value))

    def __pow__(self, exponent: int) -> "GTElement":
        group = self.group
        group.counter.gt_exponentiations += 1
        exponent %= group.order
        table = group._gt_table_for(self.value)
        if table is not None:
            return GTElement(group, table.pow(exponent))
        return GTElement(group, group.ext.unitary_pow(self.value, exponent))

    def inverse(self) -> "GTElement":
        return GTElement(self.group, self.group.ext.inv(self.value))

    def is_identity(self) -> bool:
        return self.group.ext.is_one(self.value)

    def to_bytes(self) -> bytes:
        return self.group.encode_gt(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GTElement)
            and self.group.params is other.group.params
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash(("GT", self.value))

    def __repr__(self) -> str:
        return f"GT(...{self.value[0] & 0xFFFF:04x})"


class PairingGroup:
    """A symmetric pairing group (G, GT, e, r) over type-A parameters.

    ``seed`` makes all randomness drawn *through this object* reproducible;
    pass ``None`` for OS-seeded randomness.
    """

    def __init__(self, params: TypeAParams, seed=None, *, backend=None):
        self.params = params
        self.order = params.r
        self.backend_requested = backend  # travels with the pickle
        self.field = PrimeField(params.p, check_prime=False, backend=backend)
        self.backend_name = self.field.backend_name
        self.curve = SupersingularCurve(self.field)
        self.ext = QuadraticExtension(self.field)
        self.rng = random.Random(seed)
        self.counter = OperationCounter()
        self.field.counter = self.counter  # fp_muls/fp_invs telemetry
        self.g = G1Element(self, params.generator)
        self._gt_generator = None
        self._g_table = None
        self._g1_tables = {}     # point -> FixedBaseTable
        self._gt_tables = {}     # F_p² value -> GTFixedBaseTable
        self._prepared = {}      # point -> PreparedPairing
        self._h2g_cache = {}     # (domain, parts) -> subgroup point
        self.scalar_bytes = (self.order.bit_length() + 7) // 8
        self.g1_bytes = self.field.byte_length + 1  # compressed point + tag
        self.gt_bytes = 2 * self.field.byte_length

    def __reduce__(self):
        """Pickle as parameters only — tables/caches rebuild lazily.

        The fixed-base and prepared-pairing caches are pure derived data
        (and megabytes at SS512 sizes), so a worker process reconstructs
        the group from its parameter integers and regrows whatever
        caches its own workload needs. The RNG state is deliberately not
        shipped: a round-tripped group draws fresh randomness.
        """
        params = self.params
        backend = self.backend_requested
        return (
            _rebuild_group,
            (type(self), params.r, int(params.p), params.generator,
             params.name, "auto" if backend is None else backend),
        )

    def op_counts(self) -> dict:
        """Operation-counter snapshot (the dict the benches publish)."""
        return self.counter.snapshot()

    # -- generators and identities ------------------------------------------------

    @property
    def gt(self) -> GTElement:
        """The canonical GT generator e(g, g) (computed once, cached)."""
        if self._gt_generator is None:
            self._gt_generator = self.pair(self.g, self.g)
        return self._gt_generator

    def generator_table(self):
        """Lazily-built fixed-base table for generator exponentiations."""
        if self._g_table is None:
            from repro.ec.fixed_base import FixedBaseTable

            self._g_table = FixedBaseTable(
                self.curve, self.params.generator, self.order
            )
            self._g1_tables.setdefault(self.params.generator, self._g_table)
        return self._g_table

    def identity_g1(self) -> G1Element:
        return G1Element(self, INFINITY)

    def identity_gt(self) -> GTElement:
        return GTElement(self, self.ext.one)

    # -- precomputation registries -------------------------------------------------

    def _g1_table_for(self, point):
        table = self._g1_tables.get(point)
        if table is None and point == self.params.generator:
            table = self.generator_table()
        return table

    def _gt_table_for(self, value):
        table = self._gt_tables.get(value)
        if table is None and self._gt_generator is not None \
                and value == self._gt_generator.value:
            # The GT generator e(g, g) is exponentiated by every Encrypt;
            # build its table on first use.
            table = self.register_gt_base(self._gt_generator)
        return table

    @staticmethod
    def _bounded_insert(cache: dict, limit: int, key, value):
        if len(cache) >= limit:
            cache.pop(next(iter(cache)))  # oldest-first eviction
        cache[key] = value

    def register_g1_base(self, element: G1Element, window: int = 4):
        """Precompute a fixed-base table for a G element that will be
        exponentiated repeatedly (public attribute keys, user keys...).

        Build cost is a few hundred point additions plus one inversion
        (~15 ms at SS512); each later exponentiation of the registered
        base drops to ``bits/window`` inversion-free additions. Returns
        the table (reusing an existing one when already registered).
        """
        table = self._g1_tables.get(element.point)
        if table is None and element.point is not INFINITY:
            from repro.ec.fixed_base import FixedBaseTable

            table = FixedBaseTable(
                self.curve, element.point, self.order, window=window
            )
            self._bounded_insert(
                self._g1_tables, MAX_G1_TABLES, element.point, table
            )
        return table

    def register_gt_base(self, element: GTElement, window: int = 4):
        """Precompute a windowed-exponentiation table for a GT element
        (the cached e(g,g), per-authority e(g,g)^{α_k} products...)."""
        table = self._gt_tables.get(element.value)
        if table is None and not self.ext.is_zero(element.value):
            from repro.pairing.gt_table import GTFixedBaseTable

            table = GTFixedBaseTable(
                self.ext, element.value, self.order, window=window
            )
            self._bounded_insert(
                self._gt_tables, MAX_GT_TABLES, element.value, table
            )
        return table

    def prepare_pairing(self, element: G1Element):
        """Cache the Miller-loop line coefficients of a pairing argument.

        Later ``pair``/``pair_prod`` calls that involve the prepared
        element (on either side — the pairing is symmetric) replay the
        cached lines instead of recomputing the chain, cutting ~2/3 of
        the per-pairing work. Returns the :class:`PreparedPairing`.
        """
        prepared = self._prepared.get(element.point)
        if prepared is None:
            from repro.pairing.prepared import PreparedPairing

            prepared = PreparedPairing(
                self.curve, self.ext, element.point, self.order
            )
            self._bounded_insert(
                self._prepared, MAX_PREPARED_PAIRINGS, element.point, prepared
            )
        return prepared

    # -- the bilinear map ---------------------------------------------------------

    def _miller_raw(self, point_p, point_q):
        """Unreduced Miller value, via cached line coefficients when the
        first or (by symmetry) second argument has been prepared.
        Returns None for a trivial (infinity-input) pairing."""
        if point_p is INFINITY or point_q is INFINITY:
            return None
        prepared = self._prepared.get(point_p)
        if prepared is not None:
            return prepared.miller(point_q)
        prepared = self._prepared.get(point_q)
        if prepared is not None:  # e(P, Q) = e(Q, P) on this curve
            return prepared.miller(point_p)
        return miller_loop(self.curve, self.ext, point_p, point_q, self.order)

    def pair(self, a: G1Element, b: G1Element) -> GTElement:
        """The symmetric Tate pairing e(a, b)."""
        self.counter.pairings += 1
        raw = self._miller_raw(a.point, b.point)
        if raw is None:
            return GTElement(self, self.ext.one)
        return GTElement(self, final_exponentiation(self.ext, raw, self.order))

    def pair_prod(self, pairs) -> GTElement:
        """∏ e(a_i, b_i) with one shared final exponentiation."""
        point_pairs = [(a.point, b.point) for a, b in pairs]
        self.counter.pairings += len(point_pairs)
        accumulator = None
        for point_p, point_q in point_pairs:
            raw = self._miller_raw(point_p, point_q)
            if raw is None:
                continue
            accumulator = (
                raw if accumulator is None else self.ext.mul(accumulator, raw)
            )
        if accumulator is None:
            return GTElement(self, self.ext.one)
        return GTElement(
            self, final_exponentiation(self.ext, accumulator, self.order)
        )

    def multiexp_g1(self, elements, scalars) -> G1Element:
        """∏ elementᵢ^{scalarᵢ} in G with one shared doubling chain.

        Straus/Shamir interleaving (Pippenger buckets for large batches)
        plus fixed-base tables for any registered bases; a single modular
        inversion converts the result back to affine. Counts
        ``len(elements)`` G exponentiations — the same operations the
        naive per-element ``**`` loop would record — so the cost-model
        validation stays meaningful.
        """
        elements = list(elements)
        scalars = list(scalars)
        if len(elements) != len(scalars):
            raise MathError("multiexp_g1 needs one scalar per element")
        self.counter.g1_exponentiations += len(elements)
        p = self.field.p  # backend-wrapped modulus
        accumulator = _JAC_INFINITY
        rest = []
        for element, scalar in zip(elements, scalars):
            scalar %= self.order
            if scalar == 0 or element.point is INFINITY:
                continue
            table = self._g1_table_for(element.point)
            if table is not None:
                accumulator = _jac_add(
                    accumulator, table.multiply_jacobian(scalar), p
                )
            else:
                rest.append((element.point, scalar))
        if rest:
            accumulator = _jac_add(
                accumulator, self.curve.multi_mul_jacobian(rest), p
            )
        return G1Element(self, self.curve.to_affine(accumulator))

    # -- sampling ------------------------------------------------------------------

    def random_scalar(self) -> int:
        """Uniform nonzero exponent in Z_r^*."""
        return self.rng.randrange(1, self.order)

    def random_scalars(self, count: int, *, nonzero: bool = True) -> list:
        """``count`` independent uniform exponents from ONE RNG call.

        The offline randomization pools draw whole share vectors at
        once; pulling one ``getrandbits`` block of ``count`` widths
        amortizes the RNG bookkeeping that ``randrange`` pays per
        scalar. Each scalar is reduced from twice the order's bit width,
        so the modular bias is ≤ 2^-|r| (the same head-room
        :meth:`hash_to_scalar` uses); with ``nonzero`` (the default,
        matching :meth:`random_scalar`) zeros are resampled.
        """
        if count < 0:
            raise MathError("cannot draw a negative number of scalars")
        if count == 0:
            return []
        width = 2 * self.scalar_bytes * 8
        mask = (1 << width) - 1
        block = self.rng.getrandbits(width * count)
        scalars = []
        for _ in range(count):
            value = (block & mask) % self.order
            block >>= width
            while nonzero and value == 0:  # pragma: no cover - p < 2^-|r|
                value = self.rng.getrandbits(width) % self.order
            scalars.append(value)
        return scalars

    def random_g1(self) -> G1Element:
        return self.g ** self.random_scalar()

    def random_gt(self) -> GTElement:
        return self.gt ** self.random_scalar()

    # -- hashing -------------------------------------------------------------------

    def _hash_stream(self, parts, domain: bytes, needed: int) -> bytes:
        """Injective absorb of ``parts`` then SHA-256 expansion to ``needed`` bytes."""
        hasher = hashlib.sha256(domain)
        for part in parts:
            if isinstance(part, str):
                part = part.encode("utf-8")
            elif isinstance(part, int):
                if part < 0:
                    # Sign-prefix the magnitude: non-negative encodings
                    # below always lead with a 0x00 byte, so the 0x01
                    # prefix keeps the map injective (and int.to_bytes
                    # would raise OverflowError on negatives).
                    magnitude = -part
                    part = b"\x01" + magnitude.to_bytes(
                        (magnitude.bit_length() + 8) // 8 + 1, "big"
                    )
                else:
                    part = part.to_bytes((part.bit_length() + 8) // 8 + 1, "big")
            elif not isinstance(part, (bytes, bytearray)):
                raise MathError(f"cannot hash object of type {type(part).__name__}")
            hasher.update(len(part).to_bytes(4, "big"))
            hasher.update(part)
        digest_state = hasher.digest()
        stream = b""
        counter = 0
        while len(stream) < needed:
            stream += hashlib.sha256(
                digest_state + counter.to_bytes(4, "big")
            ).digest()
            counter += 1
        return stream[:needed]

    def hash_to_scalar(self, *parts, domain: bytes = b"repro.H") -> int:
        """H : {0,1}* → Z_r (the paper's random-oracle hash H).

        Accepts str/bytes/int parts; length-prefixes each part so the
        encoding is injective, then expands SHA-256 output to twice the
        scalar width before reducing (negligible mod bias).
        """
        stream = self._hash_stream(parts, domain, 2 * self.scalar_bytes)
        return int.from_bytes(stream, "big") % self.order

    def hash_to_g1(self, *parts, domain: bytes = b"repro.H2G") -> G1Element:
        """H : {0,1}* → G (random oracle into the source group).

        Try-and-increment on candidate x-coordinates, followed by
        cofactor clearing (multiplying by h = (p+1)/r maps any curve
        point into the order-r subgroup). Needed by the Lewko-Waters and
        BSW baselines, which hash global identifiers / attributes to
        group elements. Results are memoized — the same identifier is
        hashed on every KeyGen *and* every Decrypt row, and the
        try-and-increment loop costs a square root plus a cofactor
        multiplication each time.
        """
        key = (domain, parts)
        try:
            cached = self._h2g_cache.get(key)
        except TypeError:  # unhashable part (bytearray...): skip the cache
            key = None
            cached = None
        if cached is not None:
            return G1Element(self, cached)
        cofactor = (self.params.p + 1) // self.order
        p = self.params.p
        x_bytes = 2 * self.field.byte_length
        for counter in range(512):
            candidate = int.from_bytes(
                self._hash_stream(
                    (counter.to_bytes(4, "big"),) + parts, domain, x_bytes
                ),
                "big",
            )
            x = candidate % p
            point = self.curve.lift_x(x, parity=candidate & 1)
            if point is None:
                continue
            cleared = self.curve.mul(point, cofactor)
            if cleared is not INFINITY:
                if key is not None:
                    self._bounded_insert(
                        self._h2g_cache, MAX_HASH_POINT_CACHE, key, cleared
                    )
                return G1Element(self, cleared)
        raise MathError("hash_to_g1 failed to find a curve point")  # pragma: no cover

    # -- serialization ---------------------------------------------------------------

    def encode_g1(self, element: G1Element) -> bytes:
        """Compressed point encoding: tag byte (0/2/3) + x-coordinate."""
        if element.point is INFINITY:
            return b"\x00" * self.g1_bytes
        x, y = element.point
        tag = 2 + (y & 1)
        return bytes([tag]) + self.field.to_bytes(x)

    def decode_g1(self, data: bytes, *, check_subgroup: bool = True) -> G1Element:
        if len(data) != self.g1_bytes:
            raise MathError("wrong length for a G element encoding")
        tag = data[0]
        if tag == 0:
            if any(data[1:]):
                raise MathError("malformed identity encoding")
            return self.identity_g1()
        if tag not in (2, 3):
            raise MathError(f"unknown point-compression tag {tag}")
        x = self.field.from_bytes(data[1:])
        point = self.curve.lift_x(x, tag - 2)
        if point is None:
            raise MathError("x-coordinate is not on the curve")
        # Subgroup validation: the curve has order p + 1 = h·r, and points
        # outside the order-r subgroup would make pairings land outside GT
        # (small-subgroup confinement). Cost: one scalar multiplication —
        # skippable (``check_subgroup=False``) only for bytes this process
        # already validated, e.g. store-internal re-reads.
        if check_subgroup \
                and self.curve.mul(point, self.order) is not INFINITY:
            raise MathError("point is not in the order-r subgroup")
        return G1Element(self, point)

    def decode_g1_batch(self, blobs) -> list:
        """Decode many G encodings, subgroup-checking every point.

        Each blob is lifted onto the curve exactly as :meth:`decode_g1`
        would (malformed encodings raise identically), then order-r
        membership is established **per point**, with failures naming
        the offending index. A shared random-linear-combination check
        (``r · Σ δᵢ·Pᵢ = O``) was deliberately rejected: the cofactor
        ``h = (p+1)/r`` is divisible by 4 (``generate_type_a`` forces
        it), so the residual group contains order-2 elements — two bad
        points carrying the same order-2 component cancel under any
        same-parity coefficients, and even uniform coefficients pass a
        nonzero residual with probability 1/q for every small prime
        ``q | h``. With unknown small factors in ``h``, no single
        combined check is sound, so untrusted points are checked one
        by one.
        """
        decoded = [
            self.decode_g1(blob, check_subgroup=False) for blob in blobs
        ]
        # The per-point checks share one scalar (the group order), so the
        # whole batch runs as level-synchronized affine double-and-add
        # with ONE batch inversion per bit round instead of per-point
        # Jacobian ladders — same r·Pᵢ results, point by point.
        indices = [
            index for index, element in enumerate(decoded)
            if element.point is not INFINITY
        ]
        products = batch_same_scalar_mults(
            self.curve, [decoded[index].point for index in indices],
            self.order,
        )
        for index, product in zip(indices, products):
            if product is not INFINITY:
                raise MathError(
                    f"batch element {index} is not in the order-r subgroup"
                )
        return decoded

    def encode_gt(self, element: GTElement) -> bytes:
        return self.ext.to_bytes(element.value)

    def decode_gt(self, data: bytes, *, check_subgroup: bool = True) -> GTElement:
        if len(data) != self.gt_bytes:
            raise MathError("wrong length for a GT element encoding")
        value = self.ext.from_bytes(data)
        # Subgroup validation, mirroring decode_g1: GT is the order-r
        # subgroup of F_p²^*, and accepting values outside it would let a
        # hostile peer smuggle small-subgroup elements through the wire
        # formats. gcd(r, p - 1) = 1, so every order-r value has norm 1:
        # the norm test loses nothing and licenses the trace ladder for
        # ``value^r``. Cost: one ladder — skippable only for bytes this
        # process already validated.
        if self.ext.is_zero(value):
            raise MathError("0 is not a GT element")
        if check_subgroup and (
            self.ext.norm(value) != 1
            or not self.ext.is_one(self.ext.unitary_pow(value, self.order))
        ):
            raise MathError("value is not in the order-r subgroup of F_p²")
        return GTElement(self, value)

    def encode_scalar(self, value: int) -> bytes:
        return (value % self.order).to_bytes(self.scalar_bytes, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_bytes:
            raise MathError("wrong length for a scalar encoding")
        return int.from_bytes(data, "big") % self.order

    def __repr__(self) -> str:
        return f"PairingGroup({self.params.name})"
