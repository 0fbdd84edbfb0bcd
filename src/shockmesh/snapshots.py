"""The snapshots.csv output of ``simulate``, written without keeping steps.

Which steps snapshots.csv keeps depends on the final step count, which is
known only when the run ends. ``spill_hook`` therefore writes every step's
values, and the nodes of each new mesh, to a binary file as raw float64
bytes, and ``snapshot_lines`` reads back and formats only the kept steps.
Only the command-line harness imports this module.
"""

from __future__ import annotations

import io
import math
import operator
from collections import Counter
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


def snapshot_lines(
    spill: io.BufferedRandom, index: list[tuple[int, float, int, int]], n: int
) -> Iterator[str]:
    """Yield the header, then one block of ``n`` lines per kept step.

    Kept are the steps on a cadence of about 50 blocks per run, and the
    last step. Their arrays are read back from ``spill`` at the offsets
    ``index`` holds. Every number is written as '%.17g' % x.
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
    cached_at = node_texts = None
    for step, instant, nodes_at, values_at in kept:
        prefix = "%d,%.17g," % (step, instant)
        values = read(values_at)
        if uses[nodes_at] == 1:
            # A mesh of one kept block, as in adaptive runs: one %-format.
            fields = chain.from_iterable(
                zip(node_index, read(nodes_at).tolist(), values.tolist())
            )
            yield "\n".join([prefix + "%s%.17g,%.17g"] * n) % tuple(fields)
            continue
        if nodes_at != cached_at:
            # A mesh that several kept blocks share: its "i,x," texts once.
            cached_at = nodes_at
            fields = chain.from_iterable(zip(node_index, read(nodes_at).tolist()))
            node_texts = ("\n".join(["%s%.17g,"] * n) % tuple(fields)).split("\n")
        # Each distinct bit pattern once, so -0.0 and 0.0 stay apart.
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        distinct = bits.view(np.float64).tolist()
        texts = ("\n".join(["%.17g"] * len(distinct)) % tuple(distinct)).split("\n")
        rows = map(operator.add, node_texts, map(texts.__getitem__, inverse.tolist()))
        yield prefix + ("\n" + prefix).join(rows)
