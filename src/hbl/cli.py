"""Command-line front end: config ingestion, subcommand dispatch, artifacts.

Configs are JSON documents (schema ``hbl-config/1``) whose numeric fields
are decimal strings, parsed losslessly at the working precision.  Every
artifact embeds the resolved config and the library version; identical
configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from mpmath import mp, mpf, mpc

from . import __version__
from . import numerics as nu
from .errors import HblError, InvalidConfig, UsageError, WrongRegime
from .model import (
    BrownianConfig,
    Regime,
    classify_separation,
    ellipse_endpoints,
    phase_boundary,
    semicircle_density,
)
from .mop import MultiIndexPair, WeightSystem
from . import kernel, painleve, rh, scaling

CONFIG_SCHEMA = "hbl-config/1"
USAGE_EXIT = UsageError.exit_code
_DIGITS = 30


def _fmt(x):
    """An artifact value as it is written: an int as it is, a float by
    repr (the shortest decimal that reads back to it), an mpf or mpc to
    _DIGITS significant digits at the precision it holds, and anything
    else parsed by numerics.to_ext at working precision first."""
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return repr(x)
    if not isinstance(x, (mpf, mpc)):
        x = nu.to_ext(x)
    return mp.nstr(x, _DIGITS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def load_config(path: str) -> BrownianConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=str, parse_int=str)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    if raw.get("schema") != CONFIG_SCHEMA:
        raise InvalidConfig(
            f"config schema must be {CONFIG_SCHEMA!r}, got {raw.get('schema')!r}"
        )
    unknown = sorted(set(raw) - {"schema", "a", "b", "p", "T", "L"})
    if unknown:
        raise InvalidConfig(
            f"unknown config fields {unknown}: a config takes schema, a, b, p and T or L"
        )
    values = []
    for key, default in (("a", None), ("b", None), ("p", ["0.5", "0.5"])):
        pair = raw.get(key, default)
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InvalidConfig(f"config field {key!r} must list two numbers")
        values += pair
    if "L" in raw and "T" in raw:
        raise InvalidConfig("config must set either 'T' or 'L', not both")
    rule = "L" if "L" in raw else "T"
    rule_value = raw.get(rule, "1")
    # the parse hooks turn every JSON number into its decimal string
    if not all(isinstance(v, str) for v in values + [rule_value]):
        raise InvalidConfig("config fields a, b, p and T or L must hold numbers")
    return BrownianConfig(*values, **{rule: rule_value})


def config_echo(cfg: BrownianConfig) -> dict:
    out = {
        "schema": CONFIG_SCHEMA,
        "a": [_fmt(cfg.a1), _fmt(cfg.a2)],
        "b": [_fmt(cfg.b1), _fmt(cfg.b2)],
        "p": [_fmt(cfg.p1), _fmt(cfg.p2)],
    }
    if cfg.L is not None:
        out["L"] = _fmt(cfg.L)
    else:
        out["T"] = _fmt(cfg.T)
    return out


def _metadata(cfg: BrownianConfig) -> dict:
    return {
        "version": __version__,
        "precision_bits": mp.prec,
        "config": config_echo(cfg),
    }


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, header: Sequence[str], rows, metadata: dict) -> None:
    """CSV artifact: '#' metadata preamble, header row, '.' decimals, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _int_list(option: str, text: str) -> tuple:
    """A comma list of integers given to ``option``."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(
            f"{option} must be a comma list of integers, got {text!r}"
        ) from None


def _decimal(option: str, text: str) -> mpf:
    """A finite decimal number given to ``option``, at working precision."""
    try:
        value = nu.to_ext(text)
    except ValueError:
        value = mp.nan
    if not mp.isfinite(value):
        raise UsageError(f"{option} must be a finite decimal number, got {text!r}")
    return value


def _parse_index(ns) -> MultiIndexPair:
    """--n and --m: two components each (one per starting and ending
    position), with a positive total degree."""
    n, m = _int_list("--n", ns.n), _int_list("--m", ns.m)
    if len(n) != 2 or len(m) != 2:
        raise UsageError(f"--n and --m must list two integers each, got {ns.n!r}, {ns.m!r}")
    if sum(n) + sum(m) == 0:
        raise UsageError("--n and --m must not both be zero")
    return MultiIndexPair(n, m)


def _parse_t(ns) -> mpf:
    """The --t option as a time strictly inside (0, 1)."""
    try:
        t = nu.to_ext(ns.t)
    except ValueError:
        raise InvalidConfig(f"time t must be a decimal number, got {ns.t!r}") from None
    if not 0 < t < 1:
        raise InvalidConfig(f"time t must lie in (0, 1), got {ns.t}")
    return t


def _indexed(cfg: BrownianConfig, ns) -> tuple:
    """(weight system, index pair, artifact header) of --n, --m and --t:
    N = n / T_n at n = |n| by the config's rule, and the header is the
    metadata with t, n and m."""
    idx = _parse_index(ns)
    t = _parse_t(ns)
    ws = WeightSystem.from_config(cfg, t, idx.size_n)
    header = {**_metadata(cfg), "t": _fmt(t), "n": list(idx.n), "m": list(idx.m)}
    return ws, idx, header


def cmd_classify(cfg: BrownianConfig, ns, out: Path) -> int:
    rep = classify_separation(cfg)
    payload = {
        "regime": rep.regime.value,
        "t_crit": _fmt(rep.t_crit),
        "T_crit": _fmt(rep.T_crit),
    }
    print(json.dumps(payload, sort_keys=True))
    if ns.out:
        write_json(out / "classify.json", {**_metadata(cfg), **payload})
    return 0


def cmd_geometry(cfg: BrownianConfig, ns, out: Path) -> int:
    t = _parse_t(ns)
    rows = []
    for j in (1, 2):
        alpha, beta = ellipse_endpoints(cfg, t, j)
        samples = ns.samples
        for i in range(samples):
            x = alpha + (beta - alpha) * i / (samples - 1)
            rows.append((j, _fmt(x), _fmt(semicircle_density(cfg, t, j, x))))
    payload = _metadata(cfg)
    payload["t"] = _fmt(t)
    for j in (1, 2):
        alpha, beta = ellipse_endpoints(cfg, t, j)
        payload[f"alpha_{j}"] = _fmt(alpha)
        payload[f"beta_{j}"] = _fmt(beta)
    write_json(out / "geometry.json", payload)
    write_csv(out / "geometry.csv", ("group", "x", "density"), rows, _metadata(cfg))
    print(f"wrote {out / 'geometry.json'} and {out / 'geometry.csv'}")
    return 0


def cmd_coefficients(cfg: BrownianConfig, ns, out: Path) -> int:
    ws, idx, payload = _indexed(cfg, ns)
    exp = rh.assemble_rh_expansion(ws, idx)
    H = rh.recurrence_matrix_H(exp)
    size = exp.p + exp.q
    payload.update(
        {
            "N": _fmt(ws.N),
            "Y1": [[_fmt(exp.Y1[i, j]) for j in range(size)] for i in range(size)],
            "Y2": [[_fmt(exp.Y2[i, j]) for j in range(size)] for i in range(size)],
        }
    )
    write_json(out / "coefficients.json", payload)
    rows = [
        (i + 1, j + 1, _fmt(H[i, j]))
        for i in range(size)
        for j in range(i + 1, size)
    ]
    write_csv(
        out / "recurrence_products.csv", ("i", "j", "c_ij_c_ji"), rows, _metadata(cfg)
    )
    print(f"wrote {out / 'coefficients.json'} and {out / 'recurrence_products.csv'}")
    return 0


def cmd_identities(cfg: BrownianConfig, ns, out: Path) -> int:
    ws, idx, payload = _indexed(cfg, ns)
    # every expansion the checks read, in one batch: those of the
    # recurrences, whose rows are also their MOP vectors, and the swapped
    # system's
    *exps, exp_sw = rh.assemble_rh_expansions(
        rh.recurrence_pairs(ws, idx) + [rh.swapped_system(ws, idx)]
    )
    exp, *exp_shifted = exps
    # {(k, l): (forward, backward)}, in the order of exp_shifted
    residuals = rh.verify_recurrences(exps, [mpf(0), mpf(1), mpc(-1, 1)])
    tol = mpf(10) ** ns.tol_exponent
    checks = []

    def record(name, residual):
        checks.append(
            {
                "name": name,
                "residual": _fmt(residual),
                "pass": bool(residual <= tol),
            }
        )

    rep = rh.scalar_product_report(exp)
    record("scalar_products", rep.max_residual)
    record("five_term_recurrence", max(fw for fw, _ in residuals.values()))
    record("backward_recurrence", max(bw for _, bw in residuals.values()))
    worst_inv = worst_diag = mpf(0)
    z0 = mpc(2, 1)
    for (k, l), exp_sh in zip(residuals, exp_shifted):
        U = rh.forward_transfer(exp, exp_sh, k, l, z0)
        Ub = rh.backward_transfer(exp, exp_sh, k, l, z0)
        worst_inv = max(worst_inv, nu.max_abs(U * Ub - mp.eye(exp.p + exp.q)))
        worst_diag = max(worst_diag, rh.diagonal_recurrence(exp, k, l).disagreement)
    record("transfer_inverse", worst_inv)
    record("involution", rh.involution_check(exp, exp_sw))
    record("diagonal_coefficient_cross_check", worst_diag)
    payload.update(
        {
            "tolerance": _fmt(tol),
            "checks": checks,
            "all_pass": all(c["pass"] for c in checks),
        }
    )
    write_json(out / "identities.json", payload)
    print(json.dumps({"all_pass": payload["all_pass"]}))
    return 0 if payload["all_pass"] else 3


def cmd_density(cfg: BrownianConfig, ns, out: Path) -> int:
    ws, idx, payload = _indexed(cfg, ns)
    grid = kernel.default_grid(cfg, ws.t, points=ns.points)
    prof = kernel.density_profile(ws, idx, cfg, grid)
    columns = (prof.xs, prof.values, prof.semicircle_1, prof.semicircle_2,
               prof.interval_flags)
    rows = [tuple(map(_fmt, row)) for row in zip(*columns)]
    write_csv(
        out / "density.csv",
        ("x", "density", "semicircle_1", "semicircle_2", "interval"),
        rows,
        _metadata(cfg),
    )
    payload.update(
        {
            "sup_distance_interval_1": _fmt(prof.sup_distance_1),
            "sup_distance_interval_2": _fmt(prof.sup_distance_2),
        }
    )
    write_json(out / "density.json", payload)
    print(f"wrote {out / 'density.csv'}")
    return 0


def cmd_painleve(cfg: Optional[BrownianConfig], ns, out: Path) -> int:
    tol = _decimal("--tol", ns.tol)
    if tol < nu.to_ext(painleve.MIN_TOL):
        raise UsageError(f"--tol must be at least {painleve.MIN_TOL}, got {ns.tol}")
    sol = painleve.solve_hastings_mcleod(
        s_lo=_decimal("--s-lo", ns.s_lo), s_hi=_decimal("--s-hi", ns.s_hi), tol=tol
    )
    rows = []
    for i, s in enumerate(sol.grid):
        if i % ns.stride:
            continue
        u = painleve.hamiltonian_u(sol, s)
        rows.append((_fmt(s), _fmt(sol.q[i]), _fmt(sol.q_prime[i]), _fmt(u)))
    meta = {
        "version": __version__,
        "precision_bits": mp.prec,
        "s_lo": _fmt(sol.s_lo),
        "s_hi": _fmt(sol.s_hi),
        "tolerance": _fmt(sol.tol),
        "achieved_residual": _fmt(sol.achieved_residual),
    }
    write_csv(out / "painleve.csv", ("s", "q", "q_prime", "u"), rows, meta)
    print(f"wrote {out / 'painleve.csv'}")
    return 0


def cmd_scaling(cfg: BrownianConfig, ns, out: Path) -> int:
    t = _parse_t(ns)
    n_list = _int_list("--n-list", ns.n_list)
    rep = classify_separation(cfg)
    if ns.L is not None and (rep.regime is not Regime.CRITICAL or cfg.temperature() != 1):
        raise WrongRegime(
            f"--L sets the double-scaling constant, which needs critical separation "
            f"at T = 1; the config is in the {rep.regime.value} regime at "
            f"T = {_fmt(cfg.temperature())}"
        )
    least = {Regime.SMALL: 4, Regime.LARGE: 2}.get(rep.regime, 1)  # points the fit needs
    if min(n_list) < 2 or len(set(n_list)) < max(len(n_list), least):
        raise UsageError(
            f"--n-list must be {least} or more distinct integers, each at least 2, "
            f"got {ns.n_list!r}"
        )
    meta = {**_metadata(cfg), "t": _fmt(t), "regime": rep.regime.value}
    if ns.L is not None:
        cfg = cfg._replace(T=None, L=_decimal("--L", ns.L))
    study = {
        Regime.CRITICAL: scaling.double_scaling_study,
        Regime.SMALL: scaling.small_separation_study,
        Regime.LARGE: scaling.large_separation_decay,
    }[rep.regime]
    rows, extra = study(cfg, t, n_list)
    meta.update((k, _fmt(v)) for k, v in extra.items())
    rows = [{key: _fmt(val) for key, val in r.items()} for r in rows]
    header = list(rows[0].keys())
    write_csv(out / "scaling.csv", header, ([r[h] for h in header] for r in rows), meta)
    write_json(out / "scaling.json", {**meta, "rows": rows})
    print(f"wrote {out / 'scaling.csv'} and {out / 'scaling.json'}")
    return 0


def cmd_spectral(cfg: BrownianConfig, ns, out: Path) -> int:
    ws, idx, payload = _indexed(cfg, ns)
    exp = rh.assemble_rh_expansion(ws, idx)
    report = rh.spectral_curve(exp)
    payload.update(
        {
            "polynomial": {
                f"xi^{i} z^{j}": _fmt(c) for (i, j), c in sorted(report.polynomial.items())
            },
            "branches": [
                {
                    "slope": _fmt(b.slope),
                    "constant": _fmt(b.constant),
                    "inverse_z": _fmt(b.inverse_z),
                    "fit_error": _fmt(b.fit_error),
                }
                for b in report.branches
            ],
        }
    )
    write_json(out / "spectral.json", payload)
    print(f"wrote {out / 'spectral.json'}")
    return 0


def cmd_phase_diagram(cfg: BrownianConfig, ns, out: Path) -> int:
    samples = ns.samples
    curve_rows = []
    for i in range(1, samples):
        t = mpf(i) / samples
        curve_rows.append((_fmt(t), _fmt(phase_boundary(cfg, t))))
    raster_rows = []
    t_crit = classify_separation(cfg).t_crit
    for i in range(1, ns.raster):
        t = mpf(i) / ns.raster
        for j in range(1, ns.raster):
            T = mpf(2) * j / ns.raster
            probe = BrownianConfig(
                cfg.a1, cfg.a2, cfg.b1, cfg.b2, cfg.p1, cfg.p2, T=T
            )
            raster_rows.append((_fmt(t), _fmt(T), classify_separation(probe).regime.value))
    meta = _metadata(cfg)
    meta["t_crit"] = _fmt(t_crit)
    write_csv(out / "phase_boundary.csv", ("t", "T"), curve_rows, meta)
    write_csv(out / "phase_raster.csv", ("t", "T", "regime"), raster_rows, meta)
    print(f"wrote {out / 'phase_boundary.csv'} and {out / 'phase_raster.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hbl", description=__doc__)
    parser.add_argument("--precision", type=int, default=nu.DEFAULT_PRECISION_BITS,
                        help="working precision in bits (default 256)")
    parser.add_argument("--out", default=None, help="artifact output directory")
    sub = parser.add_subparsers(dest="command")

    def add(name, needs_config=True, needs_index=False, needs_t=False, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        if needs_config:
            sp.add_argument("--config", required=True, help="config JSON path")
        if needs_index:
            sp.add_argument("--n", required=True, help="comma list, e.g. 2,2")
            sp.add_argument("--m", required=True, help="comma list, e.g. 2,2")
        if needs_t:
            sp.add_argument("--t", required=True, help="time in (0,1)")
        return sp

    add("classify")
    sp = add("geometry", needs_t=True)
    sp.add_argument("--samples", type=int, default=101)
    add("coefficients", needs_index=True, needs_t=True)
    sp = add("identities", needs_index=True, needs_t=True)
    sp.add_argument("--tol-exponent", type=int, default=-18)
    sp = add("density", needs_index=True, needs_t=True)
    sp.add_argument("--points", type=int, default=400)
    sp = add("painleve", needs_config=False)
    sp.add_argument("--s-lo", default="-10")
    sp.add_argument("--s-hi", default="10")
    sp.add_argument("--tol", default="1e-12")
    sp.add_argument("--stride", type=int, default=10)
    sp = add("scaling", needs_t=True)
    sp.add_argument("--L", default=None, help="double-scaling constant")
    sp.add_argument("--n-list", default=",".join(map(str, scaling.DEFAULT_N_LIST)))
    add("spectral", needs_index=True, needs_t=True)
    sp = add("phase-diagram")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--raster", type=int, default=40)
    return parser


_HANDLERS = {
    "classify": cmd_classify,
    "geometry": cmd_geometry,
    "coefficients": cmd_coefficients,
    "identities": cmd_identities,
    "density": cmd_density,
    "painleve": cmd_painleve,
    "scaling": cmd_scaling,
    "spectral": cmd_spectral,
    "phase-diagram": cmd_phase_diagram,
}


def _check_options(ns) -> None:
    """Reject global and subcommand option values outside their ranges."""
    if ns.precision < nu.MIN_PRECISION_BITS:
        raise UsageError(
            f"--precision must be at least {nu.MIN_PRECISION_BITS} bits, "
            f"got {ns.precision}"
        )
    # density's default_grid puts its end points outside both supports, and
    # one interior point cannot lie in both: 4 points are the least
    for option, least in (
        ("points", 4), ("samples", 2), ("raster", 2), ("stride", 1)
    ):
        value = getattr(ns, option, least)
        if value < least:
            raise UsageError(f"--{option} must be at least {least}, got {value}")
    if getattr(ns, "tol_exponent", -1) >= 0:
        raise UsageError(f"--tol-exponent must be negative, got {ns.tol_exponent}")


def _report_error(exc: HblError) -> None:
    sys.stderr.write(
        json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True) + "\n"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    handler = _HANDLERS[ns.command]
    cfg = None
    try:
        _check_options(ns)
        nu.set_precision(ns.precision)
        out = Path(ns.out) if ns.out else Path(".")
        out.mkdir(parents=True, exist_ok=True)
        if getattr(ns, "config", None):
            cfg = load_config(ns.config)
        return handler(cfg, ns, out)
    except HblError as exc:
        _report_error(exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
