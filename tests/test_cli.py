import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dfplattice
from dfplattice import fieldio
from dfplattice.cli import main
from dfplattice.fieldio import read_field_csv, write_field_csv
from dfplattice.lattice import GridSpec, delta_h
from dfplattice.operators import dirac_multiplier, symbol_tables
from dfplattice.solver import ModelParams, dfp_evolve, klein_gordon_evolve


def cli_env(**extra):
    """Environment in which ``python -m dfplattice.cli`` imports the package under test."""
    src = os.path.dirname(os.path.dirname(dfplattice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evolve_t_zero_equals_serialized_input(capsys):
    code, out, _ = run_cli(
        ["evolve", "--dim", "1", "--points", "32", "--h", "1", "--alpha", "1/4",
         "--mu", "1", "--sigma2", "1", "--hurst", "0.7", "--t", "0"],
        capsys,
    )
    assert code == 0
    spec = GridSpec(1, 1.0, Fraction(1, 4), 32)
    buf = io.StringIO()
    write_field_csv(delta_h(spec), buf)
    assert out == buf.getvalue()


def test_evolve_matches_library(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, _, _ = run_cli(
        ["evolve", "--dim", "1", "--points", "16", "--t", "0.6", "--hurst", "0.75",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    spec = GridSpec(1, 1.0, Fraction(1, 4), 16)
    with open(out_path) as fh:
        got = read_field_csv(fh, spec)
    expect = dfp_evolve(delta_h(spec), 0.6, ModelParams(1.0, 1.0, 0.75))
    assert got.sup_diff(expect) < 1e-15
    manifest = json.loads((tmp_path / "field.csv.manifest.json").read_text())
    assert manifest["grid"]["N"] == 16
    assert manifest["t"] == 0.6


def test_determinism_bit_identical(tmp_path):
    env = cli_env(PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "dfplattice.cli", "subordinate", "--dim", "1",
           "--points", "8", "--t", "0.4", "--hurst", "0.7"]
    a = subprocess.run(cmd, capture_output=True, env=env, cwd=os.getcwd())
    b = subprocess.run(cmd, capture_output=True, env=env, cwd=os.getcwd())
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_csv_roundtrip_through_cli_input(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["--dim", "1", "--points", "16", "--hurst", "0.75"]
    assert run_cli(["evolve", *base, "--t", "0.3", "--out", str(first)], capsys)[0] == 0
    assert run_cli(
        ["evolve", *base, "--t", "0", "--input", str(first), "--out", str(second)], capsys
    )[0] == 0
    assert first.read_text() == second.read_text()


def test_kg_command(tmp_path, capsys):
    out_path = tmp_path / "kg.csv"
    code, _, _ = run_cli(
        ["kg", "--dim", "1", "--points", "16", "--t", "0.5", "--p", "0.5", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    spec = GridSpec(1, 1.0, Fraction(1, 4), 16)
    with open(out_path) as fh:
        got = read_field_csv(fh, spec)
    expect = klein_gordon_evolve(delta_h(spec), 0.5, 0.5, ModelParams(1.0, 1.0, 0.7))
    assert got.sup_diff(expect) < 1e-15
    code, _, err = run_cli(["kg", "--points", "16", "--t", "0.5", "--p", "-1"], capsys)
    assert code == 1 and "p must be >= 0" in err


@pytest.mark.parametrize("command", ["evolve", "kernel", "subordinate", "mellin-barnes"])
def test_damping_flag_only_on_kg(command, capsys):
    # only kg reads p; elsewhere --p is a usage error, not a silent no-op
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "0.5"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


def test_kernel_wright_route_matches_trig(capsys):
    base = ["kernel", "--dim", "1", "--points", "16", "--t", "0.5", "--hurst", "0.8",
            "--beta", "0"]
    code1, out1, _ = run_cli([*base, "--route", "trig"], capsys)
    code2, out2, _ = run_cli([*base, "--route", "wright"], capsys)
    assert code1 == 0 and code2 == 0
    spec = GridSpec(1, 1.0, Fraction(1, 4), 16)
    a = read_field_csv(io.StringIO(out1), spec)
    b = read_field_csv(io.StringIO(out2), spec)
    assert a.sup_diff(b) < 1e-10


def test_kernel_beta_one_t_zero_empty(capsys):
    code, out, _ = run_cli(
        ["kernel", "--dim", "1", "--points", "8", "--t", "0", "--beta", "1"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["k1,mask,re,im"]


def test_specfun_mittag_leffler_example(capsys):
    code, out, _ = run_cli(
        ["specfun", "--fn", "mittag-leffler", "--rho", "1", "--beta", "1", "--lambda", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(np.e, rel=1e-12)
    assert doc["status"] == "converged"
    assert doc["terms_used"] > 0


def test_specfun_gamma_and_levy(capsys):
    code, out, _ = run_cli(["specfun", "--fn", "gamma", "--s", "0.5"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    code, out, _ = run_cli(["specfun", "--fn", "levy-pdf", "--nu", "0.5", "--u", "1.0"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.21969564473386122, rel=1e-12)


def test_specfun_wright_rows(capsys):
    code, out, _ = run_cli(
        ["specfun", "--fn", "wright", "--upper", "[[1,1]]", "--lower", "[[1,1]]",
         "--lambda", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(np.e**2, rel=1e-12)


@pytest.mark.parametrize("r, p", [("1", "0.08"), ("20", "0.05")], ids=["below-floor", "large-r"])
def test_specfun_hartman_watson_refuses_outside_tame_range(capsys, r, p):
    # both printed noise (-3.6e9 and 1.95e17) and exited 0
    code, out, err = run_cli(["specfun", "--fn", "hartman-watson", "--r", r, "--p", p], capsys)
    assert code == 1
    assert out == ""
    assert "outside its guaranteed-accuracy range" in err
    code, out, _ = run_cli(["specfun", "--fn", "hartman-watson", "--r", "1", "--p", "0.5"], capsys)
    assert code == 0
    assert json.loads(out)["value"] > 0


def test_subordinate_manifest_errors(tmp_path, capsys):
    out_path = tmp_path / "sub.csv"
    code, _, _ = run_cli(
        ["subordinate", "--dim", "1", "--points", "16", "--t", "0.8", "--hurst", "0.7",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "sub.csv.manifest.json").read_text())
    assert manifest["sitewise_rel_err"] < 1e-5
    assert manifest["modewise_rel_err"] < 1e-5


def test_mellin_barnes_command(capsys):
    code, out, _ = run_cli(
        ["mellin-barnes", "--dim", "1", "--points", "16", "--t", "0.5", "--hurst", "0.8",
         "--beta", "0", "--site", "0", "--T", "40"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_error"] < 1e-3
    assert doc["status"] == "ok"


def test_dump_multiplier(capsys):
    code, out, _ = run_cli(
        ["dump-multiplier", "--dim", "1", "--points", "4", "--h", "1", "--alpha", "0/1",
         "--kind", "dirac"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k1,d2,z1_re,z1_im,z2_re,z2_im"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert set(rows) == {-1, 0, 1, 2}
    assert float(rows[0][1]) == 0.0
    # k = 1 at alpha = 0: xi = pi/2, z = -i e1 + e2
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-14)
    assert float(rows[1][3]) == pytest.approx(-1.0, abs=1e-14)
    assert float(rows[1][4]) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("kind", ["dirac", "laplacian"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dump_multiplier_rows_in_blocks(monkeypatch, capsys, dim, kind):
    # blocks of 3 rows: 4^dim nodes span several, the last one partial
    monkeypatch.setattr(fieldio, "_ROWS", 3)
    spec = GridSpec(dim, 1.0, Fraction(1, 3), 4)
    code, out, _ = run_cli(
        ["dump-multiplier", "--dim", str(dim), "--points", "4", "--h", "1", "--alpha", "1/3", "--kind", kind],
        capsys,
    )
    assert code == 0
    d2, z = symbol_tables(spec).d2, dirac_multiplier(spec).values
    header = [f"k{j + 1}" for j in range(dim)] + ["d2"]
    if kind == "dirac":
        header += [f"z{g + 1}_{part}" for j in range(dim) for g in (j, dim + j) for part in ("re", "im")]
    lines = [",".join(header)]
    for mode in itertools.product(range(-1, 3), repeat=dim):  # signed mode numbers, ascending
        node = tuple(spec.mode_index(k) for k in mode)
        row = [*mode, float(d2[node])]
        if kind == "dirac":
            for j in range(dim):
                for mask in (1 << j, 1 << (dim + j)):
                    row += [float(z[(mask,) + node].real), float(z[(mask,) + node].imag)]
        lines.append(",".join(map(repr, row)))
    assert out == "\n".join(lines) + "\n"


def test_import_loads_no_scipy():
    probe = "import sys, dfplattice.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args, achieved, status, summary, exit_code",
    [(["verify"], 0.5, "PASS", "1/1 checks passed", 0),
     (["verify", "--suite", "fake"], 2.0, "FAIL", "0/1 checks passed", 1)],
    ids=["pass", "fail"],
)
def test_verify_reports_each_check(monkeypatch, capsys, args, achieved, status, summary, exit_code):
    from dfplattice import verification

    fake = verification.Check("fake-check", 1.0, lambda: achieved)
    monkeypatch.setattr(verification, "SUITES", {"fake": [fake]})
    code, out, _ = run_cli(args, capsys)
    assert code == exit_code
    header, line, last = out.splitlines()
    assert header.split() == ["check", "tolerance", "achieved", "status"]
    assert line.split() == ["fake-check", "<=", "1", f"{achieved:g}", status]
    assert last == summary


def test_verify_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run_cli(["verify", "--suite", "bogus"], capsys)
    assert code == 2 and out == ""
    assert "'bogus'" in err and "clifford, lattice, spectral, operators, specfun, solver or all" in err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 0.5, "points": 8, "dim": 1}))
    # flag overrides config: t = 0 wins, output equals the delta field
    code, out, _ = run_cli(["evolve", "--config", str(cfg), "--t", "0"], capsys)
    assert code == 0
    spec = GridSpec(1, 1.0, Fraction(1, 4), 8)
    buf = io.StringIO()
    write_field_csv(delta_h(spec), buf)
    assert out == buf.getvalue()
    # config value used when the flag is absent
    code2, out2, _ = run_cli(["evolve", "--config", str(cfg)], capsys)
    assert code2 == 0
    assert out2 != out


def test_json_format_output(capsys):
    code, out, _ = run_cli(
        ["evolve", "--dim", "1", "--points", "8", "--t", "0.2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "field"
    assert doc["manifest"]["grid"]["N"] == 8
    from test_fieldio import field_from_json

    field = field_from_json(doc)
    expect = dfp_evolve(
        delta_h(GridSpec(1, 1.0, Fraction(1, 4), 8)), 0.2, ModelParams(1.0, 1.0, 0.7)
    )
    assert field.sup_diff(expect) < 1e-15


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "dfplattice.cli", "evolve", "--bogus-flag", "1"],
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 2


def test_kernel_rejects_input_flag(tmp_path, capsys):
    # kernel reads no initial field, so --input is a usage error, not a silent no-op
    out = tmp_path / "k.csv"
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--input", str(tmp_path / "none.csv"), "--out", str(out)])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_error_exit_code(capsys):
    code, _, err = run_cli(
        ["evolve", "--dim", "1", "--points", "8", "--hurst", "1.5", "--t", "1"], capsys
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "args",
    [["evolve", "--t", "nan"], ["evolve", "--t", "inf"], ["kernel", "--t", "nan", "--beta", "0"],
     ["evolve", "--t", "1", "--mu", "nan"], ["evolve", "--t", "1", "--sigma2", "nan"]],
    ids=["evolve-t-nan", "evolve-t-inf", "kernel-t-nan", "evolve-mu-nan", "evolve-sigma2-nan"],
)
def test_non_finite_input_exit_code(capsys, args):
    code, out, err = run_cli(args + ["--points", "8"], capsys)
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "row",
    ["-1,0,1.0,0.0", "8,0,1.0,0.0", "3,4,1.0,0.0", "0,0,2.0,0.0", "1,0,1.0,0.0,9", "1,0"],
    ids=["site-1", "site-N", "mask-4^n", "duplicate", "extra-column", "short"],
)
def test_input_csv_out_of_range_exit_code(tmp_path, capsys, row):
    path = tmp_path / "in.csv"
    path.write_text("k1,mask,re,im\n0,0,1.0,0.0\n" + row + "\n")
    code, out, err = run_cli(
        ["evolve", "--dim", "1", "--points", "8", "--t", "0", "--input", str(path)], capsys
    )
    assert code == 1
    assert out == ""
    assert f"line 3 ({row})" in err


def test_input_csv_empty_file_exit_code(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("")
    code, out, err = run_cli(
        ["evolve", "--dim", "1", "--points", "8", "--t", "0", "--input", str(path)], capsys
    )
    assert code == 1
    assert out == ""
    assert "empty CSV" in err


@pytest.mark.parametrize("command", ["evolve", "kg", "subordinate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_input_csv_non_finite_exit_code(tmp_path, capsys, command, value, part):
    path = tmp_path / "in.csv"
    re, im = (value, "0.0") if part == "re" else ("0.5", value)
    path.write_text(f"k1,mask,re,im\n0,0,1.0,0.0\n3,2,{re},{im}\n")
    code, out, err = run_cli(
        [command, "--dim", "1", "--points", "8", "--t", "0", "--input", str(path)], capsys
    )
    assert code == 1
    assert out == ""
    assert f"{path}: blade 2 at site 3 has the non-finite value" in err


def test_subordinate_long_time_miss_exit_code(tmp_path, capsys):
    # at t = 25 the old sitewise head pass missed the integrand's peak and exited 1;
    # the one levy_laplace weight meets the identity
    out = tmp_path / "sub.csv"
    code, _, err = run_cli(
        ["subordinate", "--points", "16", "--sigma2", "3", "--hurst", "0.7", "--t", "25", "--out", str(out)], capsys
    )
    assert code == 0, err
    manifest = json.loads((tmp_path / "sub.csv.manifest.json").read_text())
    assert manifest["sitewise_rel_err"] <= 1e-13


@pytest.mark.parametrize(
    "args",
    [
        ["specfun", "--fn", "gamma", "--s", "nan"],
        ["specfun", "--fn", "recip-gamma", "--s", "inf"],
        ["specfun", "--fn", "bessel-i-scaled", "--k", "0", "--z", "nan"],
        ["specfun", "--fn", "bessel-i-scaled", "--k", "0", "--z", "inf"],
        ["specfun", "--fn", "wright", "--upper", "[]", "--lower", "[[0.5, 1]]", "--lambda", "nan"],
        ["specfun", "--fn", "wright", "--upper", "[[NaN, 1]]", "--lower", "[[0.5, 1]]", "--lambda", "1"],
        ["specfun", "--fn", "mittag-leffler", "--rho", "1", "--beta", "1", "--lambda", "inf"],
        ["specfun", "--fn", "levy-laplace", "--nu", "0.7", "--s-real", "inf"],
        ["kernel", "--points", "4", "--h", "inf", "--t", "0.5"],
        ["kernel", "--points", "8", "--h", "1e-300", "--t", "0.5"],
        ["specfun", "--fn", "hartman-watson", "--r", "inf", "--p", "1"],
    ],
    ids=["gamma-nan", "recip-gamma-inf", "bessel-nan", "bessel-inf", "wright-lam-nan", "wright-row-nan",
         "mittag-leffler-inf", "levy-laplace-inf", "kernel-h-inf", "kernel-h-symbols-overflow", "hartman-watson-r-inf"],
)
def test_non_finite_argument_exit_code(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "args",
    [["--points", "8", "--sigma2", "0.3", "--t", "0.3"], ["--points", "16", "--sigma2", "0.2", "--t", "0.5"],
     ["--points", "64", "--sigma2", "0.1", "--t", "0.5"]],
    ids=["n8-value-1e34", "n16-nan", "n64-151s"],
)
def test_mellin_barnes_inaccurate_contour_exit_code(capsys, args):
    # these printed -1.27e34 against 1.01 with exit 0, NaN after 2.7 s, and NaN after 151 s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["mellin-barnes", "--dim", "1", "--h", "0.5", "--alpha", "0", "--hurst", "0.6"] + args, capsys
        )
    assert code == 1
    assert out == ""
    assert "budget of 500 terms" in err


def test_manifest_names_input_only_when_read(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("k1,mask,re,im\n0,0,1.0,0.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(src), "dim": 1, "points": 8, "t": 0.2}))
    for command in ("evolve", "kernel"):
        out = tmp_path / f"{command}.csv"
        assert run_cli([command, "--config", str(cfg), "--out", str(out)], capsys)[0] == 0
        manifest = json.loads((tmp_path / f"{command}.csv.manifest.json").read_text())
        assert manifest.get("input") == (str(src) if command == "evolve" else None)
        # config lists only the keys the subcommand's own parser defines
        unread = {"T", "c", "kind", "site", "p"} | ({"route", "beta"} if command == "evolve" else set())
        assert not unread & set(manifest["config"])


def test_thread_cap_env(tmp_path):
    env = cli_env(DFP_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "dfplattice.cli", "specfun", "--fn", "gamma", "--s", "2.0"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1.0
