"""The snapshots.csv output of ``simulate``, written without keeping steps.

Which steps snapshots.csv keeps depends on the final step count, which is
known only when the run ends. ``spill_hook`` therefore writes every step's
values, and the nodes of each new mesh, to a binary file as raw float64
bytes, and ``snapshot_lines`` reads back and formats only the kept steps.
If they share one mesh, as in a fixed-mesh run, each block after the first
rewrites only the rows whose value changed. Otherwise, as in adaptive runs,
``_text_rows`` assembles a chunk of blocks at a time in one uint8 matrix,
with numbers from a numpy kernel, ``_format_17g``, that writes exactly what
'%.17g' writes: itself, by one digit path for every decade, for zeros and
every finite |x| < 10, subnormals included, and through Python's own
'%.17g' for the rest and for the rare values next to a rounding tie. Only
the command-line harness imports this module; its bound table writes its
rows through ``_text_rows`` too.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterator
from itertools import chain
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
# Rows per chunk of blocks that ``_text_rows`` assembles at once: enough to
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


# The decades E = -324..0, the subnormals' included: E + 324 is the bin of
# |v| among these bounds, settled on its exact value, and 325 that of |v| >=
# 10 and of non-finite values. In decade E, |v| * 2**s with s =
# _SHIFTS[E + 324] lies in [1, 20), and 10**(16 - E) * 2**-s, which lies in
# (5e15, 1e16], is the double-double _HIGH + _LOW: two correctly rounded
# int/int quotients. For E >= -6, 5**(16 - E) < 2**53 makes it a double,
# and _LOW is 0.
_DECADES = np.array([_at_or_above(power) for power in range(-323, 2)])


def _factor(power: int) -> tuple[int, float, float]:
    """s, _HIGH and _LOW of the decade E = ``power``."""
    shift = (10**-power - 1).bit_length()
    high = 10 ** (16 - power) / (1 << shift)
    numerator, denominator = high.as_integer_ratio()
    low = (10 ** (16 - power) * denominator - (numerator << shift)) / (denominator << shift)
    return shift, high, low


_SHIFTS, _HIGH, _LOW = (np.array(column) for column in zip(*map(_factor, range(-324, 1))))
_SHIFTS = _SHIFTS.astype(np.int32)  # np.ldexp takes int32 exponents about 3x faster
_HIGH_HIGH, _HIGH_LOW = _halves(_HIGH)
# The half-width of the band around a tie, in units of the 17th digit,
# beyond the error bound of ``_format_17g``.
_TIE_BAND = 2.0**-44


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
    Zeros and every finite |v| < 10, the decades E = -324..0, take one
    digit path here:

    - E is the bin of |v| among ``_DECADES``, so it is exact.
    - a = |v| * 2**s is exact, and Dekker's two-product gives a * _HIGH =
      p + e exactly. With r what the double-double misses, X = |v| *
      10**(16 - E) = p + e + a * _LOW + a * r, and its rounding to an
      integer holds the 17 significant digits D.
    - The error, in units of the 17th digit, with u = 2**-53: X < 1e17, so
      p is an integer and |e| <= ulp(p) / 2 <= 8; |_LOW| <= ulp(1e16) / 2
      = 1, so |r| <= u and |a * r| < 20u; fl(a * _LOW) is off by at most
      2**-49 for a product below 20, and f = fl(e + fl(a * _LOW)) by at
      most 2**-49 more for a sum below 28. So |X - p - f| < 2**-48 + 20u <
      6e-15, and 0 for E >= -6, where _LOW and r are 0.
    - D = p + rint(f) in int64 is then X rounded to the nearest integer
      whenever f lies more than that bound from a half-integer. The values
      within ``_TIE_BAND`` = 2**-44, about 5.7e-14, of one are left
      unsettled; ties (X exactly a half-integer) always are.
    - D = 10**17 carries: D = 10**16 and E + 1. No double below 10 carries
      to E = 1: the largest is 10 - 2**-49.
    - '%.17g' writes E = -4..0 in fixed notation and E <= -5 as d.ddde-XX,
      with two or three exponent digits, each without trailing zeros, and a
      point only before a digit.

    Non-finite values, |v| >= 10 and the unsettled ones take Python's own
    '%.17g' through ``_python_17g``.
    """
    values = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(values)
    decade = np.searchsorted(_DECADES, magnitude, side="right")
    python = decade == _DECADES.size
    # Any finite stand-in keeps the arithmetic below free of inf and NaN.
    magnitude[python] = 1.0
    decade[python] = 324
    a = np.ldexp(magnitude, _SHIFTS[decade])
    p, f = _two_product(a, _HIGH[decade], _HIGH_HIGH[decade], _HIGH_LOW[decade])
    f += a * _LOW[decade]
    whole = np.rint(f)
    python |= np.abs(np.abs(f - whole) - 0.5) <= _TIE_BAND
    digits = p.astype(np.int64) + whole.astype(np.int64)
    k = 324 - decade  # -E, and 0 for zeros
    k[magnitude == 0.0] = 0
    carry = digits == 10**17
    if carry.any():
        digits[carry] = 10**16
        k -= carry
    first = digits // 10**16
    rest = digits - first * 10**16
    out = np.empty((values.size, _FIELD // 8), np.uint64)
    head = np.minimum(k, 6)
    point = (rest != 0) & _POINTED[head]
    out[:, 0] = _HEADS[(np.signbit(values) * 7 + head) * 20 + first * 2 + point]
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
    text = out.view(np.uint8)
    if python.any():
        python = python.nonzero()[0]
        text[python] = _python_17g(values[python])
    return text


def _padded(texts: list[bytes]) -> np.ndarray:
    """The texts as the rows of a uint8 matrix, NUL-padded to the longest."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), np.uint8).reshape(
        len(texts), width
    )


def _text_rows(pieces: list[np.ndarray | bytes]) -> str:
    """Rows of text joined by newlines; row i joins each piece's text for i.

    A piece is a float64 array of one value per row, written as '%.17g' by
    ``_format_17g``; a uint8 matrix of one NUL-padded text per row; or
    bytes that every row repeats. The first piece is one of the first two
    kinds. Every row is assembled in one uint8 matrix, and the NULs are
    dropped at the end. The kernel takes at most ``_CHUNK_ROWS`` values per
    call: per value, calls of more than about 2,400 values run slower.
    """
    pieces = [
        np.frombuffer(piece, np.uint8) if isinstance(piece, bytes) else piece
        for piece in [*pieces, b"\n"]
    ]
    widths = [_FIELD if piece.dtype == np.float64 else piece.shape[-1] for piece in pieces]
    rows = np.empty((len(pieces[0]), sum(widths)), np.uint8)
    at = 0
    for piece, width in zip(pieces, widths):
        column = rows[:, at : at + width]
        if piece.dtype == np.float64:
            for start in range(0, piece.size, _CHUNK_ROWS):
                column[start : start + _CHUNK_ROWS] = _format_17g(piece[start : start + _CHUNK_ROWS])
        else:
            column[:] = piece
        at += width
    rows[-1, -1] = 0
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def snapshot_lines(
    spill: io.BufferedRandom, index: list[tuple[int, float, int, int]], n: int
) -> Iterator[str]:
    """Yield the header, then the ``n`` lines of each kept step, in order.

    Kept are the steps on a cadence of about 50 blocks per run, and the
    last step. Their arrays are read back from ``spill`` at the offsets
    ``index`` holds. Every number is written as '%.17g' % x. If one mesh
    serves every kept block (a fixed-mesh run, or one kept block), its
    "i,x," texts are formatted once, and each block after the first
    re-renders only the rows whose value differs bit for bit from the block
    before. Any other run, such as an adaptive one with a mesh per block,
    is yielded as one text per chunk of up to ``_CHUNK_ROWS`` rows (at
    least one block), which ``_text_rows`` assembles.
    """
    last = index[-1][0]
    cadence = max(1, math.ceil(last / 50))
    kept = [entry for entry in index if entry[0] % cadence == 0 or entry[0] == last]

    # Read past the write buffer, which would otherwise refill itself in
    # full for every block.
    spill.flush()
    raw = spill.raw

    def read(offset: int) -> np.ndarray:
        raw.seek(offset)
        return np.frombuffer(raw.read(8 * n))

    yield "step,time,node_index,x,u"
    if len({nodes_at for _, _, nodes_at, _ in kept}) == 1:
        # One mesh: its "i,x," texts once, every row of the first block,
        # then only the rows whose value changed, bit for bit, so that -0.0
        # and 0.0 stay apart.
        fields = chain.from_iterable(enumerate(read(kept[0][2]).tolist()))
        node_texts = ("\n".join(["%d,%.17g,"] * n) % tuple(fields)).split("\n")
        rows = node_texts.copy()
        # The first block's bits inverted, so that all its rows are written.
        shown = ~read(kept[0][3]).view(np.uint64)
        for step, instant, _, values_at in kept:
            values = read(values_at)
            changed = (values.view(np.uint64) != shown).nonzero()[0]
            shown = values.view(np.uint64)
            texts = "\n".join(["%.17g"] * changed.size) % tuple(values[changed].tolist())
            for i, text in zip(changed.tolist(), texts.split("\n")):
                rows[i] = node_texts[i] + text
            prefix = "%d,%.17g," % (step, instant)
            yield prefix + ("\n" + prefix).join(rows)
        return
    index_matrix = _padded([b"%d," % i for i in range(n)])
    per_chunk = max(1, _CHUNK_ROWS // n)
    for start in range(0, len(kept), per_chunk):
        chunk = kept[start : start + per_chunk]
        prefixes = _padded([b"%d,%.17g," % (step, instant) for step, instant, _, _ in chunk])
        yield _text_rows(
            [
                np.repeat(prefixes, n, axis=0),
                np.tile(index_matrix, (len(chunk), 1)),
                np.concatenate([read(nodes_at) for _, _, nodes_at, _ in chunk]),
                b",",
                np.concatenate([read(values_at) for _, _, _, values_at in chunk]),
            ]
        )
