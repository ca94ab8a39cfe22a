"""The benchmark's workloads: inputs drawn from a seed, and output checks.

Each workload is one ``hbl`` CLI command.  The seed draws the time ``t`` on
a 1e-3 lattice of the workload's window and one translation (see
`SHIFT_STEPS`) added to all of a1, a2, b1, b2.  Only a1 - a2 and b1 - b2 set
the regime, so the seed never changes it.  The program receives only the
generated config file and its argv.

The checks run after the timed passes, in the benchmark's own process; the
reference is the library at doubled precision.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable

# Relation residuals and scalar-product certificates are ~1e-20 at n = 64 and
# 256 bits; the precision defect past n ~ 80 shows as ~1e-6.
RESIDUAL_TOL = 1e-12
AGREE_TOL = 1e-12  # relative distance from the doubled-precision reference
DENSITY_CHECK_POINTS = 5
# The translation is drawn from {-0.10, -0.09, ..., 0}.  At n = 64 and 256
# bits, translations from about +0.10 up push the orthogonality residual of
# the largest solve over the escalation threshold: that solve repeats at 512
# bits and the scaling pass costs ~1.7x.  A seed must not change the work a
# run does, so the window stays clear of that threshold.
SHIFT_STEPS = 10


@dataclass(frozen=True)
class Inputs:
    """What one seed gives a workload."""

    config_path: Path
    t: str
    argv: list  # hbl arguments after the global options


@dataclass(frozen=True)
class Workload:
    name: str
    regime: str
    a: tuple  # positions before the translation, as decimal strings
    b: tuple
    temperature: dict  # the config's "L" or "T" entry
    t_window: tuple  # (lo, hi) as decimal strings
    args: Callable  # (config path, t, tiny) -> hbl argv
    check: Callable  # (artifact dir, Inputs) -> list of problems

    def inputs(self, seed: int, config_path: Path, tiny: bool = False) -> Inputs:
        rng = random.Random(f"{self.name}/{seed}")
        lo, hi = (Decimal(v) for v in self.t_window)
        t = lo + Decimal(rng.randint(0, int((hi - lo) * 1000))) / 1000
        shift = Decimal(rng.randint(-SHIFT_STEPS, 0)) / 100
        config = {
            "schema": "hbl-config/1",
            "a": [str(Decimal(v) + shift) for v in self.a],
            "b": [str(Decimal(v) + shift) for v in self.b],
            "p": ["0.5", "0.5"],
            **self.temperature,
        }
        found = regime(config)
        if found != self.regime:
            raise ValueError(f"{self.name}: config {config} is {found}, not {self.regime}")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return Inputs(config_path, str(t), self.args(str(config_path), str(t), tiny))


def regime(config: dict) -> str:
    """Separation regime at T = 1 for p1 = p2 = 1/2: critical exactly when
    (a1 - a2)(b1 - b2) = (sqrt p1 + sqrt p2)^2 = 2."""
    a1, a2 = (Decimal(v) for v in config["a"])
    b1, b2 = (Decimal(v) for v in config["b"])
    product = (a1 - a2) * (b1 - b2)
    return "critical" if product == 2 else ("large" if product > 2 else "small")


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


def _quiet_main(argv: list) -> int:
    from hbl import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- scaling-critical ---------------------------------------------------------

def _scaling_args(config: str, t: str, tiny: bool) -> list:
    argv = ["scaling", "--config", config, "--t", t, "--L", "0"]
    return argv + ["--n-list", "8,12"] if tiny else argv


def _check_scaling(art: Path, inputs: Inputs) -> list:
    from mpmath import mp, mpf

    from hbl import cli, rh
    from hbl.mop import MultiIndexPair, WeightSystem

    problems = []
    got = _read_json(art / "scaling.json")
    if got["regime"] != "critical":
        problems.append(f"regime {got['regime']}, not critical")
    for row in got["rows"]:
        for i in range(1, 5):
            r = float(row[f"relation_residual_{i}"])
            if not r <= RESIDUAL_TOL:
                problems.append(f"n={row['n']}: relation_residual_{i} = {r:.3g}")

    bits = 2 * got["precision_bits"]
    ref_dir = art.with_name(art.name + "-ref")
    if _quiet_main(["--precision", str(bits), "--out", str(ref_dir)] + inputs.argv) != 0:
        return problems + [f"{bits}-bit reference study failed"]
    ref = _read_json(ref_dir / "scaling.json")
    if len(ref["rows"]) != len(got["rows"]):
        problems.append("reference and artifact differ in row count")
    with mp.workprec(bits):
        cfg = cli.load_config(str(inputs.config_path))
        t = mpf(inputs.t)
    for row, ref_row in zip(got["rows"], ref["rows"]):
        for key in ("c12c21", "c14c41"):
            d = _rel(float(row[key]), float(ref_row[key]))
            if not d <= AGREE_TOL:
                problems.append(f"n={row['n']}: {key} is {d:.3g} off the {bits}-bit value")
        # Certificate of the reference expansion, which the reference study
        # has just assembled (L = 0 gives T_n = 1, so N = n).
        with mp.workprec(bits):
            ws = WeightSystem(a=(cfg.a1, cfg.a2), b=(cfg.b1, cfg.b2), t=t, N=mpf(row["n"]))
            idx = MultiIndexPair((row["n1"], row["n2"]), (row["n1"], row["n2"]))
            exp = rh.assemble_rh_expansion(ws, idx)
            cert = float(rh.scalar_product_report(exp).max_residual)
        if not cert <= RESIDUAL_TOL:
            problems.append(f"n={row['n']}: scalar-product certificate {cert:.3g}")
    return problems


# -- density-large ------------------------------------------------------------

DENSITY_POINTS = 100


def _density_args(config: str, t: str, tiny: bool) -> list:
    n, points = ("4,4", 10) if tiny else ("12,12", DENSITY_POINTS)
    return ["density", "--config", config, "--n", n, "--m", n, "--t", t,
            "--points", str(points)]


def _check_density(art: Path, inputs: Inputs) -> list:
    from mpmath import mp, mpf

    from hbl import cli, kernel
    from hbl.mop import MultiIndexPair, WeightSystem

    lines = (art / "density.csv").read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0][2:])
    rows = [line.split(",") for line in lines[2:]]
    opts = dict(zip(inputs.argv[1::2], inputs.argv[2::2]))
    points = int(opts["--points"])
    if len(rows) != points:
        return [f"density.csv has {len(rows)} rows, expected {points}"]
    n = tuple(int(v) for v in opts["--n"].split(","))
    m = tuple(int(v) for v in opts["--m"].split(","))
    bits = 2 * meta["precision_bits"]
    problems = []
    with mp.workprec(bits):
        cfg = cli.load_config(str(inputs.config_path))
        t = mpf(inputs.t)
        idx = MultiIndexPair(n, m)
        ws = WeightSystem.from_config(cfg, t, idx.size_n)
        grid = kernel.default_grid(cfg, t, points=points)
        step = max(1, (points - 1) // (DENSITY_CHECK_POINTS - 1))
        for i in range(0, points, step):
            ref = float(kernel.correlation_kernel(ws, idx, grid[i]) / idx.size_n)
            got = float(rows[i][1])
            if not _rel(got, ref) <= AGREE_TOL:
                problems.append(f"x[{i}]: density {got!r} vs {bits}-bit {ref!r}")
    return problems


# -- identities-large ---------------------------------------------------------

def _identities_args(config: str, t: str, tiny: bool) -> list:
    n = "3,3" if tiny else "16,16"
    return ["identities", "--config", config, "--n", n, "--m", n, "--t", t]


def _check_identities(art: Path, inputs: Inputs) -> list:
    got = _read_json(art / "identities.json")
    return [] if got["all_pass"] else [
        f"{c['name']}: residual {c['residual']}" for c in got["checks"] if not c["pass"]
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scaling-critical",
            regime="critical",
            a=("1", "-1"),
            b=("0.5", "-0.5"),
            temperature={"L": "0"},
            t_window=("0.30", "0.36"),
            args=_scaling_args,
            check=_check_scaling,
        ),
        Workload(
            name="density-large",
            regime="large",
            a=("1", "-1"),
            b=("0.7", "-0.7"),
            temperature={"T": "1"},
            t_window=("0.45", "0.55"),
            args=_density_args,
            check=_check_density,
        ),
        Workload(
            name="identities-large",
            regime="large",
            a=("1", "-1"),
            b=("0.7", "-0.7"),
            temperature={"T": "1"},
            t_window=("0.35", "0.45"),
            args=_identities_args,
            check=_check_identities,
        ),
    )
}
