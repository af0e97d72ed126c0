"""Characteristic-polynomial set reconciliation (Minsky–Trachtenberg–Zippel [21]).

The other classic exact-reconciliation technology the paper cites:
communication-*optimal* (``~(d+1)·log|F|`` bits for ``d`` differences, no
constant-factor table overhead like IBLTs) at the price of polynomial
algebra for decoding instead of IBLTs' ``O(d)`` peeling.

Each party's set ``S`` is represented by its characteristic polynomial
``χ_S(z) = Π_{x in S} (z - x)`` over GF(p), ``p = 2^61 - 1``.  For
shared random evaluation points the ratio

``f(z) = χ_A(z) / χ_B(z) = Π_{a in A\\B}(z-a) / Π_{b in B\\A}(z-b)``

is a reduced rational function whose numerator/denominator degrees are
the two one-sided difference sizes.  Alice recovers it by rational
interpolation: knowing ``|A| - |B|`` (exchanged up front) fixes the
degree *difference*; she sweeps the degree up from zero and accepts the
first interpolant that validates on held-out evaluations — that minimal
interpolant is the reduced ratio, so its numerator's roots among her own
elements are exactly ``A \\ B`` (root-testing over known candidates is
[21]'s practical variant).

All linear algebra is exact over GF(p) (Gaussian elimination with
modular inverses).  This serves as the second exact baseline in the
ablation benches, head-to-head with the IBLT approach.
"""

from __future__ import annotations

from typing import Sequence

from ..hashing import MERSENNE_P, PublicCoins
from ..metric.spaces import MetricSpace, Point, point_tuples
from ..protocol.channel import BOB, Channel
from ..protocol.serialize import BitReader, BitWriter
from .exact_iblt import encode_points, ship_alice_only
from .outcome import ReconcileResult

__all__ = ["cpi_reconcile", "evaluate_characteristic"]

_P = MERSENNE_P
_HOLDOUT = 8


def _inv(x: int) -> int:
    """Modular inverse in GF(p)."""
    return pow(x, _P - 2, _P)


def evaluate_characteristic(elements: Sequence[int], zs: Sequence[int]) -> list[int]:
    """Evaluate ``χ_S(z) = Π (z - x)`` at each ``z`` over GF(p)."""
    values = []
    for z in zs:
        acc = 1
        for x in elements:
            acc = acc * ((z - x) % _P) % _P
        values.append(acc)
    return values


def _poly_eval(coeffs: Sequence[int], z: int) -> int:
    acc = 0
    for coefficient in reversed(coeffs):
        acc = (acc * z + coefficient) % _P
    return acc


def _solve_rational(
    zs: Sequence[int], ratios: Sequence[int], deg_p: int, deg_q: int
) -> tuple[list[int], list[int]] | None:
    """Interpolate ``f = P/Q`` with exact degrees ``(deg_p, deg_q)``.

    Linearises ``P(z_i) - f(z_i)·Q(z_i) = 0`` with ``Q`` monic of degree
    ``deg_q``, using ``deg_p + deg_q + 1`` equations.  Returns ``None``
    when the system is singular (wrong degree guess).
    """
    unknowns = deg_p + deg_q + 1
    if len(zs) < unknowns:
        return None
    rows = []
    rhs = []
    for z, ratio in zip(zs[:unknowns], ratios[:unknowns]):
        row = []
        power = 1
        for _ in range(deg_p + 1):
            row.append(power)
            power = power * z % _P
        power = 1
        for _ in range(deg_q):
            row.append((-ratio * power) % _P)
            power = power * z % _P
        rows.append(row)
        rhs.append(ratio * pow(z, deg_q, _P) % _P)

    n = unknowns
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % _P != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = _inv(rows[col][col] % _P)
        rows[col] = [value * inv % _P for value in rows[col]]
        rhs[col] = rhs[col] * inv % _P
        for r in range(n):
            if r != col and rows[r][col] % _P:
                factor = rows[r][col] % _P
                rows[r] = [
                    (a - factor * b) % _P for a, b in zip(rows[r], rows[col])
                ]
                rhs[r] = (rhs[r] - factor * rhs[col]) % _P
    solution = rhs
    return solution[: deg_p + 1], solution[deg_p + 1 :] + [1]


def cpi_reconcile(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_points: Sequence[Point],
    delta_bound: int,
    coins: PublicCoins,
    channel: Channel | None = None,
) -> ReconcileResult:
    """Two-round exact one-way reconciliation via polynomial evaluations.

    Round 1 (Bob -> Alice): his set size and characteristic-polynomial
    evaluations at ``2·delta_bound + 1 + holdout`` shared random points.
    Alice interpolates the *minimal-degree* rational ratio consistent
    with held-out evaluations, root-tests her own elements against its
    numerator to find ``A \\ B``, and Round 2 ships them.  Returns
    ``success=False`` when no degree up to ``delta_bound`` validates
    (the true difference exceeded the bound).

    Requires the point universe to fit in GF(2^61 - 1).
    """
    channel = channel if channel is not None else Channel()
    if space.dim * (space.side - 1).bit_length() > 60:
        raise ValueError(
            "CPI baseline requires the point universe to fit in GF(2^61-1); "
            "use the IBLT path for larger universes"
        )
    if delta_bound < 1:
        raise ValueError(f"delta_bound must be >= 1, got {delta_bound}")

    m = 2 * delta_bound + 1 + _HOLDOUT
    rng = coins.python_rng("cpi-evals")
    zs = [rng.randrange(_P // 2, _P) for _ in range(m)]  # away from encodings

    alice = space.point_array(alice_points)
    bob = space.point_array(bob_points)
    alice_encoded = encode_points(space, alice).tolist()
    bob_encoded = encode_points(space, bob).tolist()

    # ---- Round 1: Bob's size + evaluations ------------------------------
    bob_values = evaluate_characteristic(bob_encoded, zs)
    writer = BitWriter()
    writer.write_varuint(len(bob_encoded))
    for value in bob_values:
        writer.write_uint(value, 61)
    payload = channel.send(BOB, "cpi-evaluations", writer.getvalue(), writer.bit_length)

    reader = BitReader(payload)
    bob_size = reader.read_varuint()
    received = [reader.read_uint(61) for _ in range(m)]

    # ---- Alice: minimal-degree rational interpolation --------------------
    alice_values = evaluate_characteristic(alice_encoded, zs)
    ratios = [a * _inv(b) % _P for a, b in zip(alice_values, received)]
    size_gap = len(alice_encoded) - bob_size  # = deg P - deg Q of the ratio

    failure = ReconcileResult(
        success=False,
        bob_final=point_tuples(bob),
        alice_only=[],
        bob_only=[],
        total_bits=channel.total_bits,
        rounds=channel.rounds,
    )

    interpolant: tuple[list[int], list[int]] | None = None
    for deg_q in range(0, delta_bound + 1):
        deg_p = deg_q + size_gap
        if deg_p < 0 or deg_p > delta_bound:
            continue
        candidate = _solve_rational(zs, ratios, deg_p, deg_q)
        if candidate is None:
            continue
        p_coeffs, q_coeffs = candidate
        holdout_ok = True
        for z, ratio in zip(zs[-_HOLDOUT:], ratios[-_HOLDOUT:]):
            q_val = _poly_eval(q_coeffs, z)
            if q_val == 0 or _poly_eval(p_coeffs, z) * _inv(q_val) % _P != ratio:
                holdout_ok = False
                break
        if holdout_ok:
            interpolant = candidate
            break
    if interpolant is None:
        return failure
    p_coeffs, q_coeffs = interpolant

    # The reduced numerator vanishes exactly on A \ B.
    alice_only = [
        point
        for point, encoded in zip(point_tuples(alice), alice_encoded)
        if _poly_eval(p_coeffs, encoded) == 0
    ]
    bob_only = [
        point
        for point, encoded in zip(point_tuples(bob), bob_encoded)
        if _poly_eval(q_coeffs, encoded) == 0
    ]

    # ---- Round 2: Alice ships her side of the difference -----------------
    bob_final = ship_alice_only(space, channel, "cpi-alice-only", bob, alice_only)
    return ReconcileResult(
        success=True,
        bob_final=bob_final,
        alice_only=alice_only,
        bob_only=bob_only,
        total_bits=channel.total_bits,
        rounds=channel.rounds,
    )
