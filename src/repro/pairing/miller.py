"""Miller's algorithm for the reduced Tate pairing on type-A curves.

We compute ``f_{r,P}(φ(Q))`` where ``φ(x, y) = (-x, i·y)`` is the
distortion map into E(F_p²). Two structural facts make the loop cheap:

* the second argument's x-coordinate ``-x_Q`` lies in the *base* field, so
  every vertical-line evaluation lands in F_p^* and is annihilated by the
  final exponentiation ``(p² - 1)/r = (p - 1)·(p + 1)/r`` — this is the
  classic *denominator elimination* for even embedding degree;
* all slope computations happen on F_p-rational points, so the only F_p²
  work is accumulating the running Miller value.

The fast path runs the chain of tangent/chord lines in *Jacobian*
coordinates with no modular inversions at all: each line is stored as a
coefficient triple ``(A, B, C)`` meaning ``l(φ(Q)) = (A - B·x̄_Q) +
(C·y_Q)·i``, correct up to a factor in F_p^* (the cleared denominators),
which the final exponentiation annihilates for the same reason verticals
do. Because the triples depend only on the *first* pairing argument,
:func:`line_coefficients` doubles as the precomputation behind
:class:`repro.pairing.prepared.PreparedPairing`: pairing against a cached
first argument replays the stored lines and skips the whole chain walk.

Points of the order-``r`` subgroup never hit 2-torsion inside the loop
(``r`` is an odd prime), so the doubling step needs no special cases; the
only degenerate line is the final vertical when the addition step lands on
infinity, which we simply skip (it is a vertical, hence eliminated).
"""

from __future__ import annotations

from repro.ec.curve import INFINITY, SupersingularCurve
from repro.errors import MathError
from repro.math.field_ext import QuadraticExtension

# Step kinds inside a coefficient list: a doubling step squares the
# running Miller value before multiplying the line in; an addition step
# only multiplies.
_DOUBLE = 0
_ADD = 1


def line_coefficients(curve: SupersingularCurve, point: tuple,
                      order: int) -> list:
    """Line-coefficient triples of ``f_{order,point}``, inversion-free.

    Returns ``[(kind, A, B, C), ...]`` in evaluation order, where the line
    through the current chain point evaluates at ``φ(Q) = (-x_Q, y_Q·i)``
    to ``(A - B·(-x_Q % p)) + (C·y_Q)·i`` — up to an F_p^* factor killed
    by the final exponentiation. Depends only on ``point`` and ``order``,
    so the result can be cached and replayed against many second
    arguments (:class:`repro.pairing.prepared.PreparedPairing`).
    """
    if point is INFINITY:
        return []
    p = curve.p
    px, py = point
    tx_, ty_, tz_ = px, py, 1  # the chain point T in Jacobian coordinates
    steps = []
    append = steps.append
    for bit_index in range(order.bit_length() - 2, -1, -1):
        # Doubling step: tangent line at T.
        if tz_ == 0 or ty_ == 0:  # pragma: no cover - unreachable for odd order
            break
        x, y, z = tx_, ty_, tz_
        zz = z * z % p
        yy = y * y % p
        s = 4 * x * yy % p
        m = (3 * x * x + zz * zz) % p  # a = 1 contributes Z⁴
        nx = (m * m - 2 * s) % p
        nz = 2 * y * z % p
        ny = (m * (s - nx) - 8 * yy * yy) % p
        append((
            _DOUBLE,
            (m * x - 2 * yy) % p,   # A
            m * zz % p,             # B
            nz * zz % p,            # C — the cleared denominator 2Y·Z³
        ))
        tx_, ty_, tz_ = nx, ny, nz

        if (order >> bit_index) & 1:
            # Addition step: chord through T and P (mixed coordinates).
            x, y, z = tx_, ty_, tz_
            zz = z * z % p
            zzz = zz * z % p
            u2 = px * zz % p
            s2 = py * zzz % p
            h = (u2 - x) % p
            r = (s2 - y) % p
            if h == 0:
                if r == 0:
                    # T == P: tangent line, and T ← 2T.
                    yy = y * y % p
                    s = 4 * x * yy % p
                    m = (3 * x * x + zz * zz) % p
                    nx = (m * m - 2 * s) % p
                    nz = 2 * y * z % p
                    ny = (m * (s - nx) - 8 * yy * yy) % p
                    append((
                        _ADD,
                        (m * x - 2 * yy) % p,
                        m * zz % p,
                        nz * zz % p,
                    ))
                    tx_, ty_, tz_ = nx, ny, nz
                    continue
                # T + P = O: the line is the vertical x - px, eliminated;
                # the chain is exhausted (only happens at the loop end for
                # order-r points).
                break
            append((
                _ADD,
                (r * x - y * h) % p,    # A
                r * zz % p,             # B
                zzz * h % p,            # C — the cleared denominator H·Z³
            ))
            hh = h * h % p
            hhh = h * hh % p
            v = x * hh % p
            nx = (r * r - hhh - 2 * v) % p
            ny = (r * (v - nx) - y * hhh) % p
            tx_, ty_, tz_ = nx, ny, z * h % p
    return steps


def evaluate_line_steps(ext: QuadraticExtension, steps: list,
                        q_point: tuple) -> tuple:
    """Replay cached line coefficients against ``φ(q_point)``.

    This is the whole per-pairing work once the first argument's
    coefficients exist: two F_p multiplications plus one F_p² square/mul
    per step, no inversions.
    """
    if q_point is INFINITY or not steps:
        return ext.one
    p = ext.p
    xq, yq = q_point
    x_eval = -xq % p
    # The F_p² square/multiply are inlined (Karatsuba over locals, no
    # tuples between steps): per-step call overhead was the measured
    # bottleneck of batch re-encryption's pairing replay. Each line
    # component takes exactly one reduction. Bit-identical to
    # ``mul(square(f), line)`` per step.
    fr, fi = 1, 0
    for kind, a, b, c in steps:
        lr = (a - b * x_eval) % p
        li = c * yq % p
        if kind:  # _ADD: f · line
            sa, sb = fr, fi
        else:     # _DOUBLE: f² · line
            sa = (fr + fi) * (fr - fi) % p
            sb = 2 * fr * fi % p
        ac = sa * lr
        bd = sb * li
        cross = (sa + sb) * (lr + li) - ac - bd
        fr = (ac - bd) % p
        fi = cross % p
    return (fr, fi)


def evaluate_line_steps_pair(ext: QuadraticExtension, steps: list,
                             q_point: tuple, other_steps: list,
                             other_q: tuple) -> tuple:
    """``evaluate_line_steps`` of two chains with ONE accumulator.

    Both chains must follow the same double/add schedule — true of any
    two full chains of one order, since a chain's step kinds are the bit
    pattern of the order. The accumulator is squared once per doubling
    step and both lines are multiplied in, so the result is exactly the
    product of the two separate replays (as an F_p² value, not only
    after the final exponentiation) at one squaring per step instead of
    two.
    """
    p = ext.p
    x_eval = -q_point[0] % p
    yq = q_point[1]
    other_x = -other_q[0] % p
    other_y = other_q[1]
    fr, fi = 1, 0
    for (kind, a, b, c), (_, other_a, other_b, other_c) in zip(steps,
                                                               other_steps):
        if not kind:  # _DOUBLE: square once for both chains
            fr, fi = (fr + fi) * (fr - fi) % p, 2 * fr * fi % p
        lr = (a - b * x_eval) % p
        li = c * yq % p
        ac = fr * lr
        bd = fi * li
        cross = (fr + fi) * (lr + li) - ac - bd
        fr = (ac - bd) % p
        fi = cross % p
        lr = (other_a - other_b * other_x) % p
        li = other_c * other_y % p
        ac = fr * lr
        bd = fi * li
        cross = (fr + fi) * (lr + li) - ac - bd
        fr = (ac - bd) % p
        fi = cross % p
    return (fr, fi)


def evaluate_line_steps_many(ext: QuadraticExtension, steps: list,
                             q_points) -> list:
    """Replay one cached coefficient list against MANY second arguments.

    Step-outer batching: each ``(kind, A, B, C)`` triple is unpacked
    once per *step* instead of once per (step, point) pair, and the
    accumulators live in flat parallel arrays — the per-step Python
    overhead of :func:`evaluate_line_steps` amortizes across the whole
    batch. Entry ``i`` is bit-identical to
    ``evaluate_line_steps(ext, steps, q_points[i])``: the arithmetic
    per point is the same operation sequence, only the loop nesting is
    transposed.
    """
    q_points = list(q_points)
    results = [None] * len(q_points)
    live = []
    for index, q_point in enumerate(q_points):
        if q_point is INFINITY or not steps:
            results[index] = ext.one
        else:
            live.append(index)
    if not live:
        return results
    p = ext.p
    x_evals = [-q_points[i][0] % p for i in live]
    yqs = [q_points[i][1] for i in live]
    count = len(live)
    frs = [1] * count
    fis = [0] * count
    indices = range(count)
    for kind, a, b, c in steps:
        if kind:  # _ADD: f · line
            for j in indices:
                lr = (a - b * x_evals[j]) % p
                li = c * yqs[j] % p
                sa = frs[j]
                sb = fis[j]
                ac = sa * lr
                bd = sb * li
                cross = (sa + sb) * (lr + li) - ac - bd
                frs[j] = (ac - bd) % p
                fis[j] = cross % p
        else:     # _DOUBLE: f² · line
            for j in indices:
                lr = (a - b * x_evals[j]) % p
                li = c * yqs[j] % p
                fr = frs[j]
                fi = fis[j]
                sa = (fr + fi) * (fr - fi) % p
                sb = 2 * fr * fi % p
                ac = sa * lr
                bd = sb * li
                cross = (sa + sb) * (lr + li) - ac - bd
                frs[j] = (ac - bd) % p
                fis[j] = cross % p
    for position, index in enumerate(live):
        results[index] = (frs[position], fis[position])
    return results


def miller_loop(curve: SupersingularCurve, ext: QuadraticExtension,
                point: tuple, q_point: tuple, order: int) -> tuple:
    """Evaluate f_{order,point} at φ(q_point); returns an F_p² element.

    ``point`` and ``q_point`` are affine points in E(F_p)[r]; the
    distortion map is applied internally to ``q_point``. The result is
    the affine Miller value up to a factor in F_p^*, which the final
    exponentiation removes — so reduced pairings are bit-identical to the
    affine reference :func:`miller_loop_affine`.
    """
    if point is INFINITY or q_point is INFINITY:
        return ext.one
    return evaluate_line_steps(ext, line_coefficients(curve, point, order),
                               q_point)


def miller_loop_affine(curve: SupersingularCurve, ext: QuadraticExtension,
                       point: tuple, q_point: tuple, order: int) -> tuple:
    """Reference implementation: affine chain with per-step inversions.

    Kept as the cross-check oracle for the inversion-free fast path (and
    for readers following the textbook algorithm). One modular inversion
    per chain step makes it ~4× slower at 512-bit sizes.
    """
    if point is INFINITY or q_point is INFINITY:
        return ext.one
    p = curve.p
    xq, yq = q_point
    x_eval = -xq % p  # x-coordinate of φ(Q), in F_p

    f = ext.one
    tx, ty = point
    px, py = point

    # Process bits of `order` from the second-most-significant down.
    for bit_index in range(order.bit_length() - 2, -1, -1):
        # Doubling step: line tangent at T, evaluated at φ(Q).
        slope = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
        # l(X, Y) = Y - ty - slope*(X - tx) at (x_eval, yq*i):
        real = (-ty - slope * (x_eval - tx)) % p
        f = ext.mul(ext.square(f), (real, yq))
        # T = 2T (affine doubling reusing the slope).
        new_x = (slope * slope - 2 * tx) % p
        ty = (slope * (tx - new_x) - ty) % p
        tx = new_x

        if (order >> bit_index) & 1:
            if tx == px and (ty + py) % p == 0:
                # T + P = O: the line is the vertical x - px, eliminated.
                tx, ty = None, None  # pragma: no cover - only at loop end
                break
            if tx == px and ty == py:
                slope = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
            else:
                slope = (py - ty) * pow(px - tx, -1, p) % p
            real = (-ty - slope * (x_eval - tx)) % p
            f = ext.mul(f, (real, yq))
            new_x = (slope * slope - tx - px) % p
            ty = (slope * (tx - new_x) - ty) % p
            tx = new_x
    return f


def final_exponentiation(ext: QuadraticExtension, value: tuple, order: int) -> tuple:
    """Raise a Miller value to ``(p² - 1)/r``, landing in the order-r subgroup.

    Uses the factorization ``(p² - 1)/r = (p - 1) · ((p + 1)/r)``; the
    first factor is a cheap Frobenius-and-divide (``x^p = conj(x)``), the
    second a short exponentiation (``(p + 1)/r`` is the cofactor ``h``).
    After the first factor the value has norm 1, so the second runs as
    :meth:`~repro.math.field_ext.QuadraticExtension.unitary_pow`'s Lucas
    ladder on the trace. This factor ``p - 1`` is also what annihilates
    the F_p^* denominators the projective fast path leaves in its Miller
    values.
    """
    p = ext.p
    # value^(p-1) = conj(value) / value.
    powered = ext.mul(ext.conjugate(value), ext.inv(value))
    return ext.unitary_pow(powered, (p + 1) // order)


def final_exponentiation_many(ext: QuadraticExtension, values: list,
                              order: int) -> list:
    """Batch :func:`final_exponentiation` sharing one modular inversion.

    The F_p² inversion inside the ``p - 1`` factor routes through a single
    base-field inversion of the norm ``a² + b²``; Montgomery batch
    inversion (:func:`repro.math.integers.batch_invmod`) replaces the
    ``n`` norm inversions with one inversion plus ``3(n-1)``
    multiplications; each cofactor ladder still ends in its own
    inversion. Modular inverses are unique, so each result is
    bit-identical to the per-value computation.
    """
    from repro.math.integers import batch_invmod

    values = list(values)
    if not values:
        return []
    p = ext.p
    norms = [ext.norm(value) for value in values]
    if any(n == 0 for n in norms):
        raise MathError("0 is not invertible in F_p²")
    norm_invs = batch_invmod(norms, p)
    cofactor = (p + 1) // order
    results = []
    for value, ninv in zip(values, norm_invs):
        a, b = value
        inverse = (a * ninv % p, -b * ninv % p)
        powered = ext.mul(ext.conjugate(value), inverse)
        results.append(ext.unitary_pow(powered, cofactor))
    return results
