"""CLI dispatch, config ingestion, artifact determinism."""

import json
from pathlib import Path

import pytest
from mpmath import mpf

from hbl.cli import load_config, main

from conftest import count_solves

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def large_sep_config_file(tmp_path):
    path = tmp_path / "large_sep.json"
    path.write_text(
        json.dumps(
            {
                "schema": "hbl-config/1",
                "a": ["1", "-1"],
                "b": ["0.7", "-0.7"],
                "p": ["0.5", "0.5"],
                "T": "1",
            }
        )
    )
    return path


@pytest.fixture()
def critical_config_file(tmp_path):
    path = tmp_path / "critical.json"
    path.write_text(
        json.dumps(
            {
                "schema": "hbl-config/1",
                "a": ["1", "-1"],
                "b": ["0.5", "-0.5"],
                "p": ["0.5", "0.5"],
                "L": "0",
            }
        )
    )
    return path


def test_decimal_strings_parse_losslessly(large_sep_config_file):
    cfg = load_config(str(large_sep_config_file))
    assert cfg.b1 == mpf("0.7")
    assert cfg.b1 != mpf(0.7)  # the double 0.7 is not the 256-bit 0.7


def test_classify_stdout(large_sep_config_file, capsys):
    assert main(["classify", "--config", str(large_sep_config_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "large"
    assert payload["t_crit"].startswith("0.5882352941")
    assert payload["T_crit"] == "1.4"


def test_identities_all_pass(large_sep_config_file, tmp_path, capsys):
    out = tmp_path / "art"
    code = main(
        [
            "--out", str(out),
            "identities",
            "--config", str(large_sep_config_file),
            "--n", "1,1",
            "--m", "1,1",
            "--t", "0.4",
        ]
    )
    assert code == 0
    payload = json.loads((out / "identities.json").read_text())
    assert payload["all_pass"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "scalar_products",
        "five_term_recurrence",
        "transfer_inverse",
        "involution",
    }


def test_unknown_subcommand_exits_64(capsys):
    assert main(["frobnicate"]) == 64


def test_missing_subcommand_exits_64(capsys):
    assert main([]) == 64


def test_artifacts_are_byte_identical(large_sep_config_file, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert (
            main(
                [
                    "--out", str(out),
                    "coefficients",
                    "--config", str(large_sep_config_file),
                    "--n", "2,1",
                    "--m", "1,2",
                    "--t", "0.25",
                ]
            )
            == 0
        )
        outs.append(out)
    for fname in ("coefficients.json", "recurrence_products.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_artifact_embeds_config_and_version(large_sep_config_file, tmp_path):
    out = tmp_path / "art"
    main(
        [
            "--out", str(out),
            "coefficients",
            "--config", str(large_sep_config_file),
            "--n", "1,1",
            "--m", "1,1",
            "--t", "0.5",
        ]
    )
    payload = json.loads((out / "coefficients.json").read_text())
    assert payload["config"]["b"][0] == "0.7"
    assert payload["version"]
    assert payload["precision_bits"] == 256
    csv_first = (out / "recurrence_products.csv").read_text().splitlines()[0]
    assert csv_first.startswith("# ")
    assert json.loads(csv_first[2:])["config"]["a"] == ["1.0", "-1.0"]


def test_precision_above_escalation_ceiling(large_sep_config_file, tmp_path):
    # a start above the solver's escalation ceiling is still tried once
    out = tmp_path / "art"
    code = main(
        [
            "--precision", "2048",
            "--out", str(out),
            "coefficients",
            "--config", str(large_sep_config_file),
            "--n", "2,2",
            "--m", "2,2",
            "--t", "0.5",
        ]
    )
    assert code == 0
    payload = json.loads((out / "coefficients.json").read_text())
    assert payload["precision_bits"] == 2048


def test_escalation_ceiling_names_the_precision_to_retry(
    large_sep_config_file, tmp_path, capsys, monkeypatch
):
    # G(48, 48) is singular at 128 bits; with the ceiling there, the error
    # names the last bits tried and the --precision of the next doubling
    from hbl import mop

    monkeypatch.setattr(mop, "MAX_ESCALATED_PRECISION", 128)
    argv = ["--precision", "128", "--out", str(tmp_path / "art"), "coefficients",
            "--config", str(large_sep_config_file), "--n", "24,24", "--m", "24,24",
            "--t", "0.5"]
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "normalization-impossible"
    assert report["message"].endswith(
        "; gave up at 128 bits, the last step under the escalation ceiling of 128: "
        "retry with --precision 256"
    )


def test_csv_format_contract(large_sep_config_file, tmp_path):
    out = tmp_path / "art"
    main(
        [
            "--out", str(out),
            "geometry",
            "--config", str(large_sep_config_file),
            "--t", "0.5",
            "--samples", "11",
        ]
    )
    raw = (out / "geometry.csv").read_bytes()
    assert b"\r" not in raw  # LF line endings only
    lines = raw.decode().splitlines()
    assert lines[1] == "group,x,density"
    assert "." in lines[2].split(",")[1]


def test_bad_schema_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope", "a": ["1", "-1"], "b": ["1", "-1"]}))
    code = main(["classify", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "invalid-config"


_COEFFICIENTS = ["coefficients", "--n", "2,2", "--m", "2,2", "--t", "0.3"]


@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ["classify"]),
        ("{", ["classify"]),
        ("[]", ["classify"]),
        ({"a": "31"}, ["classify"]),
        ({"a": ["1", "x"]}, ["classify"]),
        ({"T": None}, ["classify"]),
        ({"T": "inf"}, ["classify"]),
        ({"T": "nan"}, _COEFFICIENTS),
        ({"L": "inf"}, ["scaling", "--t", "0.3"]),
        ({"L": "-10"}, _COEFFICIENTS),
        ({"L": "0"}, ["scaling", "--t", "0.3", "--L", "-10", "--n-list", "8,16"]),
        ({"L": "0"}, ["scaling", "--t", "0.3", "--L", "-4", "--n-list", "8,16"]),
        ({"l": "0.5", "P": ["0.3", "0.7"]}, _COEFFICIENTS),
    ],
    ids=[
        "missing-file", "malformed-json", "top-level-array", "a-string", "a-not-a-number",
        "T-null", "T-inf", "T-nan", "L-inf", "L-10-coefficients", "L-10-scaling",
        "L-4-scaling", "misspelled-keys",
    ],
)
def test_bad_config_exits_invalid_config(tmp_path, capsys, config, argv):
    # a critical config with the given fields replaced, or the given text
    path = tmp_path / "config.json"
    if isinstance(config, dict):
        raw = {"schema": "hbl-config/1", "a": ["1", "-1"], "b": ["0.5", "-0.5"]}
        path.write_text(json.dumps({**raw, **config}))
    elif config is not None:
        path.write_text(config)
    out = tmp_path / "art"
    argv = ["--out", str(out), argv[0], "--config", str(path)] + argv[1:]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "invalid-config"
    assert not any(out.iterdir())


def test_scaling_and_coefficients_agree_on_an_L_config(tmp_path):
    # T_n = 1 + L n^{-2/3} in the large regime too: the n = 8 row of the
    # decay study is the n = (4, 4) system of `coefficients`
    path = tmp_path / "large_L.json"
    path.write_text(json.dumps(
        {"schema": "hbl-config/1", "a": ["1", "-1"], "b": ["0.7", "-0.7"], "L": "0.5"}
    ))
    common = ["--config", str(path), "--t", "0.5"]
    assert main(["--out", str(tmp_path / "sc"), "scaling", *common, "--n-list", "8,16"]) == 0
    argv = ["--out", str(tmp_path / "co"), "coefficients", *common, "--n", "4,4", "--m", "4,4"]
    assert main(argv) == 0
    row = json.loads((tmp_path / "sc" / "scaling.json").read_text())["rows"][0]
    products = (tmp_path / "co" / "recurrence_products.csv").read_text().splitlines()
    assert row["n"] == 8
    assert f"1,4,{row['c14c41']}" in products


def test_wrong_regime_maps_to_exit_2(large_sep_config_file, tmp_path, capsys):
    # scaling on a large-separation config with an L flag is fine (decay
    # study), but a small-separation study on it is impossible; exercise
    # the regime error through the density command on a small config
    small = tmp_path / "small.json"
    small.write_text(
        json.dumps(
            {
                "schema": "hbl-config/1",
                "a": ["0.4", "-0.4"],
                "b": ["0.3", "-0.3"],
                "p": ["0.5", "0.5"],
                "T": "1",
            }
        )
    )
    code = main(
        [
            "--out", str(tmp_path / "art"),
            "density",
            "--config", str(small),
            "--n", "2,2",
            "--m", "2,2",
            "--t", "0.5",
            "--points", "8",
        ]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "wrong-regime"


def test_scaling_past_the_critical_time_exits_wrong_regime(tmp_path, capsys):
    # the double-scaling predictions need 0 < t < t_crit, here 2/3
    argv = ["--out", str(tmp_path), "scaling", "--config", str(DATA / "critical_config.json")]
    assert main(argv + ["--t", "0.8"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "wrong-regime", "message": "need 0 < t < t_crit"}
    assert not (tmp_path / "scaling.csv").exists()


@pytest.mark.parametrize("config", ["large", "small"])
def test_scaling_L_outside_critical_separation_exits_wrong_regime(config, tmp_path, capsys):
    # --L sets the double-scaling constant; a study of another regime would
    # run at the config's own T and drop it from the artifact
    argv = ["--out", str(tmp_path), "scaling", "--config", str(DATA / f"{config}_config.json")]
    assert main(argv + ["--t", "0.5", "--n-list", "8,16,24,32", "--L", "0.5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "wrong-regime"
    assert f"{config} regime" in err["message"] and "--L" in err["message"]
    assert not (tmp_path / "scaling.csv").exists()


@pytest.mark.parametrize(
    "global_opts, density_opts, code, error",
    [
        ([], ["--points", "1"], 64, "usage"),
        ([], ["--points", "0"], 64, "usage"),
        (["--precision", "64"], [], 64, "usage"),
        ([], ["--t", "1.5"], 2, "invalid-config"),
    ],
    ids=["points-1", "points-0", "precision-64", "t-1.5"],
)
def test_odd_density_inputs_exit_cleanly(
    large_sep_config_file, tmp_path, capsys, global_opts, density_opts, code, error
):
    out = tmp_path / "art"
    opts = {"--n": "2,2", "--m": "2,2", "--t": "0.5", "--points": "8"}
    opts.update(zip(density_opts[::2], density_opts[1::2]))
    argv = global_opts + ["--out", str(out), "density"]
    argv += ["--config", str(large_sep_config_file)]
    argv += [v for item in opts.items() for v in item]
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error
    assert not (out / "density.csv").exists()


@pytest.mark.parametrize(
    "p, n, m, code",
    [
        ("0.25", "1,3", "1,3", 0),
        ("0.25", "3,1", "1,3", 2),
        ("0.25", "3,1", "3,1", 2),
        ("0.25", "2,2", "2,2", 2),
        ("0.5", "2,3", "2,3", 0),
        ("0.5", "3,2", "3,2", 0),
        ("0.5", "2,3", "3,2", 2),
    ],
)
def test_density_index_must_match_the_fractions(tmp_path, capsys, p, n, m, code):
    # the semicircles take their group sizes from p, the kernel from --n
    # and --m: those must be equal and split |n| as p does, to within one
    # particle, so both splits of an odd |n| pass at p_1 = 1/2
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"schema": "hbl-config/1", "a": ["1", "-1"], "b": ["0.7", "-0.7"],
         "p": [p, str(1 - mpf(p))], "T": "1"}
    ))
    out = tmp_path / "art"
    argv = ["--out", str(out), "density", "--config", str(config)]
    argv += ["--n", n, "--m", m, "--t", "0.5", "--points", "8"]
    assert main(argv) == code
    if code:
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "invalid-index"
        assert f"p = ({p}, " in error["message"]
        assert f"n = [{n.replace(',', ', ')}], m = [{m.replace(',', ', ')}]" in error["message"]
        assert not (out / "density.csv").exists()


@pytest.mark.parametrize("points, code", [(2, 3), (3, 3), (4, 0)])
def test_density_grid_must_reach_both_supports(tmp_path, capsys, monkeypatch, points, code):
    # at t = 0.5 on the large config, two or three grid points all miss the
    # middle INTERIOR_FRACTION of both supports, so the sup distances would
    # compare nothing; the check comes before any kernel point
    from hbl import kernel

    if code:
        monkeypatch.setattr(kernel, "correlation_kernel", None)
    out = tmp_path / "art"
    argv = ["--out", str(out), "density", "--config", str(DATA / "large_config.json")]
    argv += ["--n", "4,4", "--m", "4,4", "--t", "0.5", "--points", str(points)]
    assert main(argv) == code
    if code:
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "degenerate-data"
        assert f"{points}-point grid" in error["message"]
        assert "group 1's support, [" in error["message"]
        assert not (out / "density.csv").exists()


def test_scaling_small_separation_needs_equal_fractions(tmp_path, capsys):
    # classify calls this config small; the small-separation limits are
    # known for p = (1/2, 1/2) only, as the phase boundary is
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"schema": "hbl-config/1", "a": ["0.5", "-0.5"], "b": ["0.5", "-0.5"],
         "p": ["0.36", "0.64"], "T": "1"}
    ))
    assert main(["classify", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "small"
    out = tmp_path / "art"
    argv = ["--out", str(out), "scaling", "--config", str(config), "--t", "0.5"]
    assert main(argv + ["--n-list", "8,16,32,64"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "unsupported-fractions"
    assert not (out / "scaling.csv").exists()


@pytest.mark.parametrize("L", [[], ["--L", "0"]], ids=["config-T", "L-flag"])
def test_scaling_double_scaling_needs_T_1(tmp_path, capsys, monkeypatch, L):
    # classify calls a = b = (1, -1) critical at T = 2, but the double-scaling
    # rule T_n = 1 + L n^{-2/3} tends to 1, where this config is large
    from hbl import rh

    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"schema": "hbl-config/1", "a": ["1", "-1"], "b": ["1", "-1"], "T": "2"}
    ))
    assert main(["classify", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "critical"
    monkeypatch.setattr(rh, "assemble_rh_expansion", None)
    out = tmp_path / "art"
    argv = ["--out", str(out), "scaling", "--config", str(config), "--t", "0.3"]
    assert main(argv + ["--n-list", "8,16"] + L) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "wrong-regime"
    assert "critical separation at T = 1" in error["message"]
    assert "T = 2.0" in error["message"]
    assert not (out / "scaling.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--config", "large", "--t", "0.4", "--samples", "1"],
        ["phase-diagram", "--config", "large", "--samples", "1"],
        ["phase-diagram", "--config", "large", "--raster", "0"],
        ["painleve", "--stride", "0"],
        ["coefficients", "--config", "large", "--n", "2,x", "--m", "2,2", "--t", "0.4"],
        ["scaling", "--config", "large", "--t", "0.4", "--n-list", "8,x"],
        ["painleve", "--s-lo", "x"],
        ["scaling", "--config", "critical", "--t", "0.33", "--L", "x"],
        ["painleve", "--tol", "1e-16"],
        ["painleve", "--tol", "0"],
        ["identities", "--config", "large", "--n", "0,0", "--m", "0,0", "--t", "0.4"],
        ["coefficients", "--config", "large", "--n", "0,0", "--m", "0,0", "--t", "0.4"],
        ["density", "--config", "large", "--n", "0,0", "--m", "0,0", "--t", "0.4"],
        ["identities", "--config", "large", "--n", "2,2,2", "--m", "2,2,2", "--t", "0.4"],
        ["density", "--config", "large", "--n", "2,2,2", "--m", "2,2,2", "--t", "0.4"],
        ["spectral", "--config", "large", "--n", "4", "--m", "3", "--t", "0.4"],
        ["painleve", "--s-hi", "inf"],
        ["painleve", "--s-lo", "nan"],
        ["scaling", "--config", "critical", "--t", "0.33", "--L", "inf"],
        ["scaling", "--config", "large", "--t", "0.4", "--n-list", "-4"],
        ["scaling", "--config", "large", "--t", "0.4", "--n-list", "0"],
        ["scaling", "--config", "critical", "--t", "0.33", "--n-list", "1"],
        ["scaling", "--config", "large", "--t", "0.4", "--n-list", "8"],
        ["scaling", "--config", "large", "--t", "0.4", "--n-list", "8,16,8"],
        ["scaling", "--config", "small", "--t", "0.4", "--n-list", "8,16"],
        ["scaling", "--config", "small", "--t", "0.4", "--n-list", "8,8,8,8"],
        ["identities", "--config", "large", "--n", "2,2", "--m", "2,2", "--t", "0.4",
         "--tol-exponent", "0"],
    ],
    ids=[
        "samples-1", "phase-samples-1", "raster-0", "stride-0", "n-2x", "n-list-8x",
        "s-lo-x", "L-x", "tol-1e-16", "tol-0", "identities-n-0", "coefficients-n-0",
        "density-n-0", "identities-n-3-groups", "density-n-3-groups", "spectral-n-1-group",
        "s-hi-inf", "s-lo-nan", "L-inf", "n-list-negative", "n-list-0", "n-list-1",
        "large-n-list-one-point", "large-n-list-repeat", "small-n-list-two-points",
        "small-n-list-repeat", "tol-exponent-0",
    ],
)
def test_odd_inputs_exit_with_usage_error(
    large_sep_config_file, critical_config_file, tmp_path, capsys, argv
):
    small = tmp_path / "small_sep.json"
    small.write_text(json.dumps(
        {"schema": "hbl-config/1", "a": ["0.4", "-0.4"], "b": ["0.3", "-0.3"],
         "p": ["0.5", "0.5"], "T": "1"}
    ))
    configs = {"large": str(large_sep_config_file), "critical": str(critical_config_file),
               "small": str(small)}
    argv = ["--out", str(tmp_path / "art")] + [configs.get(v, v) for v in argv]
    assert main(argv) == 64
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"


@pytest.mark.parametrize(
    "n, m", [("0,2", "1,1"), ("1,1", "2,0")], ids=["n-0-2", "m-2-0"]
)
def test_identities_zero_component_exits_invalid_index(
    large_sep_config_file, tmp_path, capsys, n, m
):
    # the recurrence checks shift n - e_k and m - e_l: every component
    # must be at least 1, and the message names the index as given
    argv = ["--out", str(tmp_path / "art"), "identities"]
    argv += ["--config", str(large_sep_config_file), "--n", n, "--m", m, "--t", "0.4"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "invalid-index"
    assert "at least 1" in error["message"] and "-1" not in error["message"]


def test_identities_factors_each_expansion_once(
    large_sep_config_file, tmp_path, monkeypatch
):
    # the expansion at n, the four at n + e_k, m + e_l, whose rows hold
    # every recurrence vector, and the swapped system's: 6 LUs in one batch
    from hbl import mop

    calls = count_solves(monkeypatch)
    batches = []
    map_cores = mop._map_cores
    monkeypatch.setattr(
        mop, "_map_cores", lambda fn, jobs: batches.append(jobs) or map_cores(fn, jobs)
    )
    argv = ["--out", str(tmp_path / "art"), "identities"]
    argv += ["--config", str(large_sep_config_file)]
    argv += ["--n", "3,3", "--m", "3,3", "--t", "0.4"]
    assert main(argv) == 0
    assert len(calls) == 6
    assert len(batches) == 1


def test_scaling_dispatches_by_regime(critical_config_file, tmp_path):
    out = tmp_path / "art"
    code = main(
        [
            "--out", str(out),
            "scaling",
            "--config", str(critical_config_file),
            "--t", "0.333333",
            "--L", "0",
            "--n-list", "8,12,16,24",
        ]
    )
    assert code == 0
    payload = json.loads((out / "scaling.json").read_text())
    assert payload["regime"] == "critical"
    assert payload["K"] == "0.5"
    assert len(payload["rows"]) == 4
    assert (out / "scaling.csv").exists()


def test_spectral_artifact(large_sep_config_file, tmp_path):
    out = tmp_path / "art"
    code = main(
        [
            "--out", str(out),
            "spectral",
            "--config", str(large_sep_config_file),
            "--n", "2,2",
            "--m", "2,2",
            "--t", "0.5",
        ]
    )
    assert code == 0
    payload = json.loads((out / "spectral.json").read_text())
    assert len(payload["branches"]) == 4
    slopes = [mpf(b["slope"]) for b in payload["branches"]]
    assert sum(1 for s in slopes if abs(s) > mpf("0.1")) == 2


def test_phase_diagram_artifacts(tmp_path):
    cfgp = tmp_path / "sym.json"
    cfgp.write_text(
        json.dumps(
            {
                "schema": "hbl-config/1",
                "a": ["0.70710678118654752440", "-0.70710678118654752440"],
                "b": ["0.70710678118654752440", "-0.70710678118654752440"],
                "p": ["0.5", "0.5"],
                "T": "1",
            }
        )
    )
    out = tmp_path / "art"
    code = main(
        [
            "--out", str(out),
            "phase-diagram",
            "--config", str(cfgp),
            "--samples", "20",
            "--raster", "8",
        ]
    )
    assert code == 0
    lines = (out / "phase_boundary.csv").read_text().splitlines()
    # T(t=1/2) = 1 on this symmetric configuration
    mid = [ln for ln in lines if ln.startswith("0.5,")]
    assert mid and mpf(mid[0].split(",")[1]) - 1 < mpf("1e-25")
    raster = (out / "phase_raster.csv").read_text()
    assert "large" in raster and "small" in raster


def test_painleve_artifact(tmp_path):
    out = tmp_path / "art"
    code = main(
        ["--out", str(out), "painleve", "--s-hi", "8", "--stride", "100"]
    )
    assert code == 0
    lines = (out / "painleve.csv").read_text().splitlines()
    assert lines[1] == "s,q,q_prime,u"
    assert len(lines) > 10


def test_critical_separation_artifacts_match_golden(tmp_path):
    # golden files written by the pure-mpf Newton solver that preceded the
    # scaled-integer polish; the config sits at a fixed path
    out = tmp_path / "art"
    argv = ["--out", str(out), "scaling", "--config", str(DATA / "critical_config.json")]
    assert main(argv + ["--t", "0.324", "--L", "0", "--n-list", "8,12"]) == 0
    assert main(["--out", str(out), "painleve", "--stride", "200"]) == 0
    for name in ("scaling.json", "scaling.csv"):
        assert (out / name).read_bytes() == (DATA / f"golden_{name}").read_bytes()
    got, want = (
        path.read_bytes().split(b"\n", 1)
        for path in (out / "painleve.csv", DATA / "golden_painleve.csv")
    )
    assert got[1] == want[1]  # header and data rows
    meta_got, meta_want = (json.loads(part[0][2:]) for part in (got, want))
    assert meta_got.pop("achieved_residual") and meta_want.pop("achieved_residual")
    assert meta_got == meta_want


@pytest.mark.parametrize(
    "config, n_list",
    [("small_config.json", "8,16,32,64"), ("large_config.json", "8,16,24")],
    ids=["small", "large"],
)
def test_separation_fit_artifacts_match_golden(tmp_path, config, n_list):
    # golden files written before the scaling rows became plain mappings
    # printed by cli._fmt; the fit fields are repr of a float.  The
    # configs sit at fixed paths
    out = tmp_path / "art"
    argv = ["--out", str(out), "scaling", "--config", str(DATA / config)]
    assert main(argv + ["--t", "0.5", "--n-list", n_list]) == 0
    regime = config.split("_")[0]
    for suffix in ("json", "csv"):
        golden = (DATA / f"golden_scaling_{regime}.{suffix}").read_bytes()
        assert (out / f"scaling.{suffix}").read_bytes() == golden


def test_identities_match_golden(tmp_path):
    # golden file written by the LU that rounds each entry once; its
    # 30-digit residuals move with any change in how the LU rounds, as they
    # did when each entry stopped being rounded once per step, and the two
    # recurrence residuals with any change in which LU a vector comes from,
    # as they did when the vectors became rescaled expansion rows.  The
    # config sits at a fixed path
    out = tmp_path / "art"
    argv = ["--out", str(out), "identities", "--config", str(DATA / "large_config.json")]
    assert main(argv + ["--n", "6,6", "--m", "6,6", "--t", "0.4"]) == 0
    golden = (DATA / "golden_identities.json").read_bytes()
    assert (out / "identities.json").read_bytes() == golden


@pytest.mark.parametrize(
    "argv, name",
    [
        (["spectral", "--n", "4,4", "--m", "4,4", "--t", "0.4"], "spectral.json"),
        (["density", "--n", "4,4", "--m", "4,4", "--t", "0.5", "--points", "20"],
         "density.csv"),
    ],
    ids=["spectral", "density"],
)
def test_spectral_and_density_match_golden(tmp_path, argv, name):
    # golden files written by the Newton-polished spectral roots and the
    # hand-written Horner loops that mpmath's polyroots and polyval
    # replaced.  The config sits at a fixed path
    out = tmp_path / "art"
    config = ["--config", str(DATA / "large_config.json")]
    assert main(["--out", str(out), argv[0]] + config + argv[1:]) == 0
    golden = (DATA / f"golden_{name}").read_bytes()
    assert (out / name).read_bytes() == golden


def test_identities_failure_exit(large_sep_config_file, tmp_path):
    # an unreachable tolerance turns the report red and maps to exit 3
    code = main(
        [
            "--out", str(tmp_path / "art"),
            "identities",
            "--config", str(large_sep_config_file),
            "--n", "1,1",
            "--m", "1,1",
            "--t", "0.4",
            "--tol-exponent", "-200",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("bits", [128, 192, 256, 1088])
def test_painleve_least_tol_at_every_precision(tmp_path, capsys, bits):
    # --tol is compared with the least tolerance at the working precision
    argv = ["--precision", str(bits), "--out", str(tmp_path), "painleve", "--stride", "500"]
    assert main(argv + ["--tol", "1e-14"]) == 0
    capsys.readouterr()
    assert main(argv + ["--tol", "0.99e-14"]) == 64
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_painleve_domain_error_exit(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "painleve", "--s-hi", "5"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "domain-too-narrow"


def test_precision_flag_respected(large_sep_config_file, tmp_path, capsys):
    out = tmp_path / "art"
    main(
        [
            "--precision", "320",
            "--out", str(out),
            "classify",
            "--config", str(large_sep_config_file),
        ]
    )
    payload = json.loads((out / "classify.json").read_text())
    assert payload["precision_bits"] == 320
