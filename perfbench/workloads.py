"""Seeded workload generation.

A workload is a fixed list of operations. An operation is one call of
``shockmesh.cli.main``: a ``simulate`` run from a generated config file or
a ``theory`` sweep. The seed is the benchmark's own argument; the package
only sees the generated config files and argument lists.

The default seed keeps the jump at x0 = 0.5 and the theory sweep at
(lambda, c, m) = (0.2, 1.0, 1.0). Any other seed draws x0 per run from
[0.4, 0.6] and (lambda, c, m) per sweep the way the acceptance tests do.

Final times are shorter than the acceptance runs (T = 0.3) so that one pass
of a workload takes a few seconds on a 2-core host and a run holds several
passes to take medians over.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

SCHEMES = ("richtmyer", "maccormack", "ftcs")
PROBLEMS = ("transport", "burgers")

GRID_SIZES = (100, 200)
GRID_CFLS = (0.3, 0.5)
GRID_FINAL_TIME = 0.02
UNIFORM_N = 1600
UNIFORM_FINAL_TIME = 0.05
ADAPTIVE_FINE_N = 1600
ADAPTIVE_FINE_FINAL_TIME = 0.006
# The step count of one N = 1600 run moves by about 20% with the sub-cell
# position of its jump, so the workload averages over several draws.
ADAPTIVE_FINE_RUNS = 6
THEORY_SWEEPS = 20
THEORY_KMAX = 60


@dataclass(frozen=True)
class Op:
    """One call of the CLI with the expectations its checks use."""

    name: str
    command: str  # "simulate" or "theory"
    settings: dict
    expected_rc: int = 0

    @property
    def adaptive(self) -> bool:
        return self.command == "simulate" and self.settings["adaptive"]

    def argv(self, workdir: Path) -> list[str]:
        out = self.output_dir(workdir)
        if self.command == "simulate":
            return ["simulate", str(workdir / f"{self.name}.cfg"), str(out)]
        s = self.settings
        return [
            "theory",
            "--lambda", repr(s["lambda"]),
            "--c", repr(s["c"]),
            "--m", repr(s["m"]),
            "--kmax", str(s["kmax"]),
            str(out / "bounds.csv"),
        ]

    def output_dir(self, workdir: Path) -> Path:
        return workdir / self.name

    def config_text(self) -> str:
        s = self.settings
        return (
            f"problem = {s['problem']}\nscheme = {s['scheme']}\nn = {s['n']}\n"
            f"cfl = {s['cfl']}\nt_final = {s['t_final']}\n"
            f"adaptive = {'true' if s['adaptive'] else 'false'}\nx0 = {s['x0']!r}\n"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    profile_op: str | None  # the op run once under sys.setprofile to count calls
    # Whether the end-to-end accuracy metrics come from this workload. The
    # accuracy of one adaptive run depends strongly on where the seeded jump
    # sits between two nodes (mass drift 0.0006 to 0.005 at N = 1600), so
    # only the grid's 24 runs per seed average it into a steady figure.
    gates_accuracy: bool = False

    def draws(self) -> dict:
        """The seeded inputs of every op, for the result file."""
        keys = ("x0",) if self.ops[0].command == "simulate" else ("lambda", "c", "m")
        return {op.name: {k: op.settings[k] for k in keys} for op in self.ops}


def _jump(rng: np.random.Generator | None) -> float:
    return 0.5 if rng is None else float(rng.uniform(0.4, 0.6))


def _coupled_draw(rng: np.random.Generator) -> tuple[float, float, float]:
    coupling = rng.uniform(0.05, 0.95)
    growth = rng.uniform(0.1, 3.0)
    lam = coupling / (1.0 + 3.0 * growth)
    scale = rng.uniform(0.5, 2.0)
    return float(lam), float(growth), float(scale)


def _simulate(rng, scheme, problem, n, cfl, t_final, adaptive, expected_rc=0, suffix="") -> Op:
    kind = "a" if adaptive else "u"
    return Op(
        name=f"{kind}-{scheme}-{problem}-n{n}-cfl{cfl}{suffix}",
        command="simulate",
        settings={
            "problem": problem,
            "scheme": scheme,
            "n": n,
            "cfl": cfl,
            "t_final": t_final,
            "adaptive": adaptive,
            "x0": _jump(rng),
        },
        expected_rc=expected_rc,
    )


def build_workload(name: str, seed: int) -> Workload:
    """The ops of workload ``name`` with inputs drawn from ``seed``."""
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    if name == "grid":
        ops = tuple(
            _simulate(rng, scheme, problem, n, cfl, GRID_FINAL_TIME, True)
            for scheme in SCHEMES
            for problem in PROBLEMS
            for n in GRID_SIZES
            for cfl in GRID_CFLS
        )
        return Workload(name, seed, ops, "a-richtmyer-transport-n200-cfl0.5", True)
    if name == "uniform_fine":
        # Forward-time centred space on Burgers is unstable on a fixed mesh
        # and must end in the documented blow-up exit.
        ops = tuple(
            _simulate(
                rng, scheme, problem, UNIFORM_N, 0.5, UNIFORM_FINAL_TIME, False,
                expected_rc=3 if (scheme, problem) == ("ftcs", "burgers") else 0,
            )
            for scheme in SCHEMES
            for problem in PROBLEMS
        )
        return Workload(name, seed, ops, "u-richtmyer-transport-n1600-cfl0.5")
    if name == "adaptive_fine":
        ops = tuple(
            _simulate(
                rng, "richtmyer", "burgers", ADAPTIVE_FINE_N, 0.5,
                ADAPTIVE_FINE_FINAL_TIME, True, suffix=f"-r{i}",
            )
            for i in range(ADAPTIVE_FINE_RUNS)
        )
        return Workload(name, seed, ops, ops[0].name)
    if name == "theory_sweep":
        ops = []
        for i in range(THEORY_SWEEPS):
            lam, c, m = (0.2, 1.0, 1.0) if rng is None else _coupled_draw(rng)
            ops.append(
                Op(
                    name=f"theory-{i:02d}",
                    command="theory",
                    settings={"lambda": lam, "c": c, "m": m, "kmax": THEORY_KMAX},
                )
            )
        return Workload(name, seed, tuple(ops), None)
    raise ValueError(f"unknown workload {name!r}")


def materialize(workload: Workload, workdir: Path) -> None:
    """Write the config files of the workload's simulate ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    for op in workload.ops:
        op.output_dir(workdir).mkdir(exist_ok=True)
        if op.command == "simulate":
            (workdir / f"{op.name}.cfg").write_text(op.config_text())
