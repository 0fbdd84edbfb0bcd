"""The snapshots.csv output of ``simulate``, written without keeping steps.

Which steps snapshots.csv keeps depends on the final step count, which is
known only when the run ends. ``spill_hook`` therefore writes every step's
values, and the nodes of each new mesh, to a binary file as raw float64
bytes, and ``snapshot_lines`` reads back and formats only the kept steps.
Blocks on a mesh of their own, as in adaptive runs, are formatted a chunk
of blocks at a time by a numpy kernel, ``_format_17g``, that writes exactly
what '%.17g' writes: itself for zeros and every finite |x| < 10, subnormals
included, and through Python's own '%.17g' for the rest and for the rare
values next to a rounding tie. On a mesh that several kept blocks share, as
on a fixed mesh, each block after the first rewrites only the rows whose
value changed. Only the command-line harness imports this module; its
bound table writes its rows through the same kernel.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from collections.abc import Iterator
from itertools import chain, groupby
from typing import BinaryIO

import numpy as np

from .grid import GridSolution

__all__ = ["spill_hook", "snapshot_lines"]


def spill_hook(spill: BinaryIO, index: list[tuple[int, float, int, int]]):
    """A ``run_simulation`` snapshot hook that keeps no step's arrays.

    Each step's values go to ``spill``, its nodes only when the mesh is a
    new object, and ``index`` gets (step, time, nodes offset, values
    offset) per step.
    """
    mesh = None
    nodes_at = size = 0

    def hook(step: int, instant: float, solution: GridSolution) -> None:
        nonlocal mesh, nodes_at, size
        if solution.mesh is not mesh:
            mesh = solution.mesh
            nodes_at = size
            size += spill.write(mesh.nodes)
        index.append((step, instant, nodes_at, size))
        size += spill.write(solution.values)

    return hook


# The bytes of one formatted number: 8 of sign, "0.000" lead, first digit
# and point, 16 of digits and 8 of exponent ("e-324" at most) and padding.
# No '%.17g' text is longer than 24 bytes.
_FIELD = 32
# Rows per chunk of blocks that ``_lone_blocks`` formats at once: enough to
# spread the kernel's per-call cost over several blocks at small N, and few
# enough that a chunk's byte matrices stay under about 1 MB. Also the most
# values per kernel call, for a block of more rows.
_CHUNK_ROWS = 2048

# The four ASCII digits of 0..9999, then the same with trailing zeros as NUL.
_PLACES = np.array([1000, 100, 10, 1], np.uint16)
_DIGITS = (np.arange(10000, dtype=np.uint16)[:, None] // _PLACES % 10 + 48).astype(np.uint8)
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]
_GROUPS = np.concatenate([_DIGITS, np.where(_TRAILING, 0, _DIGITS)]).view(np.uint32).ravel()
# The first 8 bytes of a number with sign s, decade 10**-k (k = 0..6), first
# digit d and a point if p, at (s * 7 + k) * 20 + d * 2 + p: fixed notation
# for k = 1..4 starts "0.", then k - 1 zeros, and has no point after d. Every
# decade below 10**-4 has the head of k = 6.
_HEADS = np.frombuffer(
    b"".join(
        (sign + ("0." + "0" * (k - 1) if 1 <= k <= 4 else "") + digit + point)
        .encode()
        .ljust(8, b"\0")
        for sign in ("", "-")
        for k in range(7)
        for digit in "0123456789"
        for point in ("", ".")
    ),
    np.uint64,
)
_POINTED = np.array([True, False, False, False, False, True, True])
# The last 8 bytes of a number in decade 10**-k, k = 0..324: its exponent,
# "e-05" to "e-324", in scientific notation (k >= 5), else only NULs.
_EXPONENTS = np.frombuffer(
    b"".join(("e-%02d" % k if k >= 5 else "").encode().ljust(8, b"\0") for k in range(325)),
    np.uint64,
)


def _at_or_above(power: int) -> float:
    """The smallest double whose exact value is 10**power or more."""
    bound = float(f"1e{power}")
    numerator, denominator = bound.as_integer_ratio()
    if numerator * 10 ** max(-power, 0) < denominator * 10 ** max(power, 0):
        bound = math.nextafter(bound, math.inf)
    return bound


_SPLITTER = 134217729.0  # 2**27 + 1


def _halves(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two of at most 26 significant
    bits, whose sum it is exactly."""
    split = _SPLITTER * factors
    high = split - (split - factors)
    return high, factors - high


def _two_product(
    a: np.ndarray, b: np.ndarray, b_high: np.ndarray, b_low: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: p = fl(a * b) and e with a * b = p + e exactly,
    given ``b``'s halves and no underflow or overflow."""
    p = a * b
    a_high, a_low = _halves(a)
    return p, ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


# A double's decade E = -6..0 is its bin among these bounds, settled on its
# exact value; 10**(16 + k), k = -E, is exact in float64.
_DECADES = np.array([_at_or_above(power) for power in range(-6, 2)])
_SCALES = 10.0 ** np.arange(16, 23)
_SCALES_HIGH, _SCALES_LOW = _halves(_SCALES)
# The decades E = -324..-7, the subnormals' included, likewise: E + 324 is
# the bin of |v| among these bounds. In decade E, |v| * 2**s with s =
# _DEEP_SHIFTS[E + 324] lies in [1, 20), and 10**(16 - E) * 2**-s, which
# lies in (5e15, 1e16], is the double-double _DEEP_HIGH + _DEEP_LOW: two
# correctly rounded int/int quotients.
_DEEP_DECADES = np.array([_at_or_above(power) for power in range(-323, -6)])


def _deep_factor(power: int) -> tuple[int, float, float]:
    """s, _DEEP_HIGH and _DEEP_LOW of the decade E = ``power``."""
    shift = (10**-power).bit_length()
    high = 10 ** (16 - power) / (1 << shift)
    numerator, denominator = high.as_integer_ratio()
    low = (10 ** (16 - power) * denominator - (numerator << shift)) / (denominator << shift)
    return shift, high, low


_DEEP_SHIFTS, _DEEP_HIGH, _DEEP_LOW = (
    np.array(column) for column in zip(*map(_deep_factor, range(-324, -6)))
)
_DEEP_HIGH_HIGH, _DEEP_HIGH_LOW = _halves(_DEEP_HIGH)
# The half-width of the band around a tie, in units of the 17th digit,
# beyond the error bound of ``_deep_digits``.
_TIE_BAND = 2.0**-44


def _deep_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and k = -E of each 0 < |v| < 1e-6, and where D is
    not settled: the values in the band around a tie.

    With a = |v| * 2**s, exact, and the two-product a * _DEEP_HIGH = p + e,
    X = |v| * 10**(16 - E) = p + e + a * _DEEP_LOW + a * r, where r is what
    the double-double misses. Its terms in units of the 17th digit, with
    u = 2**-53: |e| <= ulp(p) / 2 <= 8 for p < 2**57; |_DEEP_LOW| <= ulp(1e16)
    / 2 = 1, so |r| <= u and |a * r| < 20u; fl(a * _DEEP_LOW) is off by at
    most 2**-49 for a product below 20, and f = fl(e + fl(a * _DEEP_LOW)) by
    at most 2**-49 more for a sum below 28. So |X - p - f| < 2**-48 + 20u <
    6e-15, and rint(f) + p is X rounded half to even whenever f lies more
    than that from a half-integer. The band is 2**-44, about 5.7e-14: only
    a value there is left unsettled, and ties (X exactly a half-integer,
    which for E <= -7 happens only in E = -8 and -7) always are.
    """
    decade = np.searchsorted(_DEEP_DECADES, magnitude, side="right")
    a = np.ldexp(magnitude, _DEEP_SHIFTS[decade])
    p, e = _two_product(a, _DEEP_HIGH[decade], _DEEP_HIGH_HIGH[decade], _DEEP_HIGH_LOW[decade])
    e += a * _DEEP_LOW[decade]
    whole = np.rint(e)
    unsettled = np.abs(np.abs(e - whole) - 0.5) <= _TIE_BAND
    digits = p.astype(np.int64) + whole.astype(np.int64)
    k = 324 - decade
    carry = digits == 10**17
    digits[carry] = 10**16
    k[carry] -= 1
    return digits, k, unsettled


def _python_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each v by Python's own %-format, as ``_format_17g``
    rows: one %-format for all of them."""
    padded = ("%-32.17g" * values.size) % tuple(values.tolist())
    fields = np.frombuffer(padded.encode("ascii"), np.uint8).reshape(-1, _FIELD)
    return np.where(fields == ord(" "), 0, fields)


def _format_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each float64 v, as the rows of a uint8 matrix.

    Row i holds the ASCII text of ``values[i]`` with NUL bytes among and
    after its characters; dropping the NULs leaves exactly '%.17g' % v.
    Zeros and every finite |v| < 10, the decades E <= 0, are formatted here:

    - E is the bin of |v| among ``_DECADES``, so it is exact.
    - For E = -6..0, Dekker's two-product with the exact double 10**q,
      q = 16 - E, gives |v| * 10**q = p + e exactly; p is a float64 in
      [1e16, 1e17], so an even integer.
    - D = p + rint(e) in int64 is then |v| * 10**q rounded half to even, the
      17 significant digits. D = 10**17 carries: D = 10**16 and E + 1. No
      double below 10 carries to E = 1: the largest is 10 - 2**-49.
    - For E <= -7, only on those values, ``_deep_digits`` finds E, and D
      from an exact power of two and a double-double 10**q; it leaves the
      values within a tie band unsettled.
    - '%.17g' writes E = -4..0 in fixed notation and E <= -5 as d.ddde-XX,
      with two or three exponent digits, each without trailing zeros, and a
      point only before a digit.

    Non-finite values, |v| >= 10 and the unsettled ones take Python's own
    '%.17g' through ``_python_17g``.
    """
    values = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(values)
    band = np.searchsorted(_DECADES, magnitude, side="right")
    inside = (band >= 1) & (band <= 7)
    zero = magnitude == 0.0
    k = np.where(inside, 7 - band, 0)  # -E, and 0 where no E applies
    a = np.where(inside, magnitude, 1.0)
    p, e = _two_product(a, _SCALES[k], _SCALES_HIGH[k], _SCALES_LOW[k])
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    carry = digits == 10**17
    if carry.any():
        digits[carry] = 10**16
        k -= carry
    others = ~(inside | zero)
    python = deep = None
    if others.any():
        python = others.nonzero()[0]
        small = magnitude[python] < _DECADES[0]
        if small.any():
            deep = python[small]
            deep_digits, deep_k, unsettled = _deep_digits(magnitude[deep])
            digits[deep] = deep_digits
            k[deep] = 6
            python = np.concatenate([python[~small], deep[unsettled]])
    first = digits // 10**16
    rest = digits - first * 10**16
    first[zero] = 0
    out = np.empty((values.size, _FIELD // 8), np.uint64)
    point = (rest != 0) & _POINTED[k]
    out[:, 0] = _HEADS[(np.signbit(values) * 7 + k) * 20 + first * 2 + point]
    # The 16 digits after the first as four groups of four; a group's
    # trailing zeros are NUL when every group after it is 0.
    words = out.view(np.uint32)
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    lower_zero = lower == 0
    words[:, 2] = _GROUPS[g1 + 10000 * ((g2 == 0) & lower_zero)]
    words[:, 3] = _GROUPS[g2 + 10000 * lower_zero]
    words[:, 4] = _GROUPS[g3 + 10000 * (g4 == 0)]
    words[:, 5] = _GROUPS[g4 + 10000]
    out[:, 3] = _EXPONENTS[k]
    if deep is not None:
        out[deep, 3] = _EXPONENTS[deep_k]
    text = out.view(np.uint8)
    if python is not None and python.size:
        text[python] = _python_17g(values[python])
    return text


def _put_17g(target: np.ndarray, values: np.ndarray) -> None:
    """Write the ``_format_17g`` rows of ``values`` into the rows of ``target``,
    ``_CHUNK_ROWS`` values per call: per value, calls of more than about
    2,400 values run slower."""
    for start in range(0, values.size, _CHUNK_ROWS):
        target[start : start + _CHUNK_ROWS] = _format_17g(values[start : start + _CHUNK_ROWS])


def _padded(texts: list[bytes]) -> np.ndarray:
    """The texts as the rows of a uint8 matrix, NUL-padded to the longest."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), np.uint8).reshape(
        len(texts), width
    )


def _text_rows(pieces: list[np.ndarray | bytes]) -> str:
    """Rows of text joined by newlines; row i joins each piece's text for i.

    A piece is a float64 array of one value per row, written as '%.17g'
    through ``_put_17g``; a uint8 matrix of one NUL-padded text per row; or
    bytes that every row repeats. The first piece is one of the first two
    kinds. Every row is assembled in one uint8 matrix, and the NULs are
    dropped at the end.
    """
    pieces = [
        np.frombuffer(piece, np.uint8) if isinstance(piece, bytes) else piece
        for piece in [*pieces, b"\n"]
    ]
    widths = [_FIELD if piece.dtype == np.float64 else piece.shape[-1] for piece in pieces]
    rows = np.empty((len(pieces[0]), sum(widths)), np.uint8)
    at = 0
    for piece, width in zip(pieces, widths):
        if piece.dtype == np.float64:
            _put_17g(rows[:, at : at + width], piece)
        else:
            rows[:, at : at + width] = piece
        at += width
    rows[-1, -1] = 0
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _lone_blocks(
    blocks: list[tuple[bytes, np.ndarray, np.ndarray]], node_index: np.ndarray
) -> str:
    """The rows of blocks given as (prefix, nodes, values), as one text.

    Every row is assembled in one uint8 matrix, NUL-padded field by field,
    and the NULs are dropped at the end. The x and u columns go through
    ``_put_17g``.
    """
    n, index_width = node_index.shape
    prefixes = _padded([prefix for prefix, _, _ in blocks])
    x_at = prefixes.shape[1] + index_width
    u_at = x_at + _FIELD + 1
    rows = np.empty((len(blocks), n, u_at + _FIELD + 1), np.uint8)
    rows[:, :, : x_at - index_width] = prefixes[:, None]
    rows[:, :, x_at - index_width : x_at] = node_index
    flat = rows.reshape(-1, rows.shape[-1])
    for at, column, end in ((x_at, 1, ","), (u_at, 2, "\n")):
        _put_17g(flat[:, at : at + _FIELD], np.concatenate([block[column] for block in blocks]))
        flat[:, at + _FIELD] = ord(end)
    rows[-1, -1, -1] = 0
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def snapshot_lines(
    spill: io.BufferedRandom, index: list[tuple[int, float, int, int]], n: int
) -> Iterator[str]:
    """Yield the header, then the ``n`` lines of each kept step, in order.

    Kept are the steps on a cadence of about 50 blocks per run, and the
    last step. Their arrays are read back from ``spill`` at the offsets
    ``index`` holds. Every number is written as '%.17g' % x. Consecutive
    blocks on meshes of one kept block each, as in adaptive runs, are
    yielded as one text per chunk of up to ``_CHUNK_ROWS`` rows (at least
    one block), formatted by ``_format_17g`` at most ``_CHUNK_ROWS`` values
    per call. A mesh that several kept
    blocks share has its row texts kept: each block after its first
    re-renders only the rows whose value differs bit for bit from the block
    before.
    """
    last = index[-1][0]
    cadence = max(1, math.ceil(last / 50))
    kept = [entry for entry in index if entry[0] % cadence == 0 or entry[0] == last]
    uses = Counter(nodes_at for _, _, nodes_at, _ in kept)

    # Read past the write buffer, which would otherwise refill itself in
    # full for every block.
    spill.flush()
    raw = spill.raw

    def read(offset: int) -> np.ndarray:
        raw.seek(offset)
        return np.frombuffer(raw.read(8 * n))

    yield "step,time,node_index,x,u"
    node_index = [f"{i}," for i in range(n)]
    per_chunk = max(1, _CHUNK_ROWS // n)
    index_matrix = None
    cached_at = node_texts = rows = shown = None
    for lone, entries in groupby(kept, key=lambda entry: uses[entry[2]] == 1):
        if lone:
            entries = list(entries)
            if index_matrix is None:
                index_matrix = _padded([text.encode() for text in node_index])
            for start in range(0, len(entries), per_chunk):
                blocks = [
                    (("%d,%.17g," % (step, instant)).encode(), read(nodes_at), read(values_at))
                    for step, instant, nodes_at, values_at in entries[start : start + per_chunk]
                ]
                yield _lone_blocks(blocks, index_matrix)
            continue
        for step, instant, nodes_at, values_at in entries:
            prefix = "%d,%.17g," % (step, instant)
            values = read(values_at)
            if nodes_at != cached_at:
                # A mesh that several kept blocks share: its "i,x," texts
                # once, and every row of its first block.
                cached_at = nodes_at
                fields = chain.from_iterable(zip(node_index, read(nodes_at).tolist()))
                node_texts = ("\n".join(["%s%.17g,"] * n) % tuple(fields)).split("\n")
                rows = node_texts.copy()
                changed = np.arange(n)
            else:
                # Only the rows whose value changed, bit for bit, so that
                # -0.0 and 0.0 stay apart.
                changed = (values.view(np.uint64) != shown.view(np.uint64)).nonzero()[0]
            shown = values
            texts = "\n".join(["%.17g"] * changed.size) % tuple(values[changed].tolist())
            for i, text in zip(changed.tolist(), texts.split("\n")):
                rows[i] = node_texts[i] + text
            yield prefix + ("\n" + prefix).join(rows)
