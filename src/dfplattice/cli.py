"""Batch command-line front end.

Subcommands: evolve, kernel, kg, subordinate, specfun, mellin-barnes,
dump-multiplier, verify.  Field outputs follow the CSV schema
k1..kn,mask,re,im plus a JSON manifest; runs are fully deterministic
(identical config => identical bytes).  Config precedence: JSON config file
below command-line flags.  DFP_THREADS caps the numeric thread pools and is
applied before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import Optional

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

_GRID_KEYS = ("dim", "points", "h", "alpha")
_MODEL_KEYS = ("mu", "sigma2", "hurst", "p")


def _apply_thread_cap() -> None:
    cap = os.environ.get("DFP_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, cap)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=None, help="lattice dimension n (1..3)")
    p.add_argument("--points", type=int, default=None, help="sites per axis N (even)")
    p.add_argument("--h", type=float, default=None, help="lattice spacing")
    p.add_argument("--alpha", type=str, default=None,
                   help="fractional parameter as an exact rational 'r/s'")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=None, help="drift")
    p.add_argument("--sigma2", type=float, default=None, help="diffusion sigma^2")
    p.add_argument("--hurst", type=float, default=None, help="Hurst exponent in (0,1)")
    p.add_argument("--p", type=float, default=None, help="damping parameter p >= 0")


def _add_io_args(p: argparse.ArgumentParser, reads_input: bool = True) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file (flags override)")
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    if reads_input:
        p.add_argument("--input", type=str, default=None,
                       help="initial field CSV on the flag-specified grid (default: discrete delta)")


_DEFAULTS = {
    "dim": 1, "points": 32, "h": 1.0, "alpha": "1/4",
    "mu": 1.0, "sigma2": 1.0, "hurst": 0.7, "p": 0.0,
    "format": "csv", "t": 0.0, "beta": None, "route": "trig",
    "c": None, "T": 40.0, "site": "0", "kind": "dirac",
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults < JSON config file < flags, over the keys the subcommand's parser defines."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "func", "command")}
    cfg = {k: _DEFAULTS.get(k) for k in flags}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update((k, v) for k, v in json.load(fh).items() if k in flags)
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    return cfg


def _grid(cfg: dict):
    from .lattice import GridSpec

    return GridSpec(int(cfg["dim"]), float(cfg["h"]), Fraction(str(cfg["alpha"])), int(cfg["points"]))


def _model(cfg: dict):
    from .solver import ModelParams

    return ModelParams(float(cfg["mu"]), float(cfg["sigma2"]), float(cfg["hurst"]), float(cfg["p"]))


def _load_initial(cfg: dict, spec):
    """The initial field and the manifest entry naming the file it was read from, if any."""
    from .fieldio import read_field_csv
    from .lattice import delta_h

    if cfg.get("input"):
        with open(cfg["input"]) as fh:
            return read_field_csv(fh, spec), {"input": cfg["input"]}
    return delta_h(spec), {}


def _manifest(cfg: dict, spec, extra: dict) -> dict:
    from .fieldio import grid_to_dict

    config = {k: cfg[k] for k in sorted(cfg) if k not in ("out", "input")}
    return {"grid": grid_to_dict(spec), "config": config, **extra}


@contextlib.contextmanager
def _output(cfg: dict, manifest: Optional[dict] = None):
    """The handle to write to: --out (plus ``<out>.manifest.json`` if given), else stdout."""
    from .fieldio import dumps_json

    out = cfg.get("out")
    if not out:
        yield sys.stdout
        return
    with open(out, "w") as fh:
        yield fh
    if manifest is not None:
        with open(out + ".manifest.json", "w") as fh:
            fh.write(dumps_json(manifest))


def _write_output(cfg: dict, payload: str, manifest: Optional[dict] = None) -> None:
    with _output(cfg, manifest) as fh:
        fh.write(payload)


def _emit_field(field, cfg: dict, spec, extra: dict) -> None:
    """Write the field (+ manifest) in the requested format."""
    from .fieldio import dumps_json, field_to_json, write_field_csv

    manifest = _manifest(cfg, spec, extra)
    if cfg["format"] == "json":
        _write_output(cfg, dumps_json({**field_to_json(field), "manifest": manifest}))
        return
    with _output(cfg, manifest) as fh:
        write_field_csv(field, fh)


def _complex_json(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return {"re": z.real, "im": z.imag}


def _cmd_evolve(args) -> int:
    from .solver import dfp_evolve

    cfg = _merge_config(args)
    spec = _grid(cfg)
    phi0, source = _load_initial(cfg, spec)
    field = dfp_evolve(phi0, float(cfg["t"]), _model(cfg))
    _emit_field(field, cfg, spec, {"command": "evolve", "t": float(cfg["t"]), **source})
    return EXIT_OK


def _cmd_kernel(args) -> int:
    from .solver import dfp_kernel, kg_kernel

    cfg = _merge_config(args)
    spec = _grid(cfg)
    t = float(cfg["t"])
    if cfg.get("beta") is None:
        field = dfp_kernel(spec, t, _model(cfg))
        extra = {"command": "kernel", "kernel": "dfp", "t": t}
    else:
        beta = int(cfg["beta"])
        field = kg_kernel(spec, t, _model(cfg), beta, route=str(cfg["route"]))
        extra = {"command": "kernel", "kernel": f"kg-beta{beta}", "t": t, "route": cfg["route"]}
    _emit_field(field, cfg, spec, extra)
    return EXIT_OK


def _cmd_kg(args) -> int:
    from .solver import klein_gordon_evolve

    cfg = _merge_config(args)
    spec = _grid(cfg)
    phi0, source = _load_initial(cfg, spec)
    field = klein_gordon_evolve(phi0, float(cfg["t"]), float(cfg["p"]), _model(cfg))
    _emit_field(field, cfg, spec, {"command": "kg", "t": float(cfg["t"]), "p": float(cfg["p"]), **source})
    return EXIT_OK


def _cmd_subordinate(args) -> int:
    import numpy as np

    from .solver import levy_subordination_check, levy_subordination_modewise

    cfg = _merge_config(args)
    spec = _grid(cfg)
    t = float(cfg["t"])
    params = _model(cfg)
    phi0, source = _load_initial(cfg, spec)
    lhs, rhs = levy_subordination_check(phi0, t, params)
    site_err = lhs.sup_diff(rhs) / max(lhs.sup_norm(), 1e-300)
    ml, mr = levy_subordination_modewise(phi0, t, params)
    mode_err = ml.sup_diff(mr) / max(float(np.max(np.abs(ml.values))), 1e-300)
    _emit_field(
        rhs, cfg, spec,
        {
            "command": "subordinate",
            "t": t,
            "sitewise_rel_err": site_err,
            "modewise_rel_err": mode_err,
            **source,
        },
    )
    return EXIT_OK


def _cmd_specfun(args) -> int:
    cfg = _merge_config(args)
    from .specfun import (
        FoxWrightParams,
        bessel_i_scaled,
        fox_wright_eval,
        gamma,
        hartman_watson_theta,
        levy_laplace,
        levy_pdf_eval,
        recip_gamma,
    )

    fn = args.fn

    def need(key: str, flag: str):
        if cfg.get(key) is None:
            raise ValueError(f"specfun --fn {fn} requires {flag}")
        return cfg[key]

    doc = {"fn": fn}
    if fn == "gamma":
        doc["value"] = _complex_json(gamma(complex(need("s", "--s"))))
    elif fn == "recip-gamma":
        doc["value"] = _complex_json(recip_gamma(complex(need("s", "--s"))))
    elif fn == "bessel-i-scaled":
        doc["value"] = bessel_i_scaled(int(need("k", "--k")), float(need("z", "--z")))
    elif fn == "wright":
        params = FoxWrightParams(
            tuple((complex(a), float(A)) for a, A in json.loads(need("upper", "--upper"))),
            tuple((complex(b), float(B)) for b, B in json.loads(need("lower", "--lower"))),
        )
        res = fox_wright_eval(params, complex(need("lam", "--lambda")))
        doc.update(value=_complex_json(res.value), status=res.status, terms_used=res.terms_used)
    elif fn == "mittag-leffler":
        res = fox_wright_eval(
            FoxWrightParams(((1.0, 1.0),), ((float(need("beta_ml", "--beta")), float(need("rho", "--rho"))),)),
            complex(need("lam", "--lambda")),
        )
        doc.update(value=_complex_json(res.value), status=res.status, terms_used=res.terms_used)
    elif fn == "levy-pdf":
        res = levy_pdf_eval(float(need("nu", "--nu")), float(need("u", "--u")))
        doc.update(value=res.value, status=res.method)
    elif fn == "levy-laplace":
        doc["value"] = levy_laplace(float(need("nu", "--nu")), float(need("s_real", "--s-real")))
    elif fn == "hartman-watson":
        doc["value"] = hartman_watson_theta(float(need("r", "--r")), float(need("p_arg", "--p")))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown function {fn}")
    from .fieldio import dumps_json

    _write_output(cfg, dumps_json(doc))
    return EXIT_OK


def _cmd_mellin_barnes(args) -> int:
    from .fieldio import dumps_json
    from .solver import kg_kernel, mellin_barnes_kernel

    cfg = _merge_config(args)
    spec = _grid(cfg)
    params = _model(cfg)
    t = float(cfg["t"])
    beta = int(cfg["beta"] if cfg.get("beta") is not None else 0)
    site = tuple(int(v) for v in str(cfg["site"]).split(","))
    c = None if cfg.get("c") is None else float(cfg["c"])
    res = mellin_barnes_kernel(site, t, spec, params, beta, c=c, T=float(cfg["T"]))
    direct = kg_kernel(spec, t, params, beta).values[(0,) + tuple(s % spec.N for s in site)]
    doc = {
        "command": "mellin-barnes",
        "site": list(site),
        "t": t,
        "beta": beta,
        "T": float(cfg["T"]),
        "value": _complex_json(res.value),
        "direct": _complex_json(direct),
        "abs_error": abs(res.value - complex(direct)),
        "tail_bound": res.tail_bound,
        "status": res.status,
    }
    _write_output(cfg, dumps_json(doc))
    return EXIT_OK


def _cmd_dump_multiplier(args) -> int:
    import numpy as np

    from .fieldio import format_rows
    from .operators import dirac_multiplier, symbol_tables

    cfg = _merge_config(args)
    spec = _grid(cfg)
    kind = str(cfg["kind"])
    header = [f"k{j + 1}" for j in range(spec.n)] + ["d2"]
    cols = [*np.meshgrid(*[spec.momentum_indices()] * spec.n, indexing="ij"), symbol_tables(spec).d2]
    if kind == "dirac":
        z = dirac_multiplier(spec).values
        for j in range(spec.n):
            header += [f"z{j + 1}_re", f"z{j + 1}_im", f"z{spec.n + j + 1}_re", f"z{spec.n + j + 1}_im"]
            cols += [z[1 << j].real, z[1 << j].imag, z[1 << (spec.n + j)].real, z[1 << (spec.n + j)].imag]
    # every node, in ascending signed mode number, read from the FFT-ordered tables
    order = np.ix_(*[spec.ascending_modes()] * spec.n)
    text = format_rows(header, zip(*(c[order].ravel().tolist() for c in cols)))
    _write_output(cfg, text, _manifest(cfg, spec, {"command": "dump-multiplier", "kind": kind}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_all, run_suite

    suite = args.suite
    results = run_all() if suite in (None, "all") else run_suite(suite)
    name_w = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(name_w)}  {'tolerance':>11}  {'achieved':>12}  status"]
    for r in results:
        rel = "<=" if r.direction == "<=" else ">="
        lines.append(
            f"{r.name.ljust(name_w)}  {rel} {r.tolerance:9.3g}  {r.achieved:12.4g}  "
            f"{'PASS' if r.passed else 'FAIL'}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    print("\n".join(lines))
    return EXIT_OK if n_fail == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfplattice",
        description="Time-changed Dirac-Fokker-Planck solvers and special functions "
        "on periodic lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run the time-changed flow")
    _add_grid_args(p), _add_model_args(p), _add_io_args(p)
    p.add_argument("--t", type=float, default=None, help="evolution time")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("kernel", help="emit a convolution kernel field")
    _add_grid_args(p), _add_model_args(p), _add_io_args(p, reads_input=False)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--beta", type=int, choices=(0, 1), default=None,
                   help="wave kernel selector; omit for the full flow kernel")
    p.add_argument("--route", choices=("trig", "wright"), default=None)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("kg", help="damped wave (Klein-Gordon) solution")
    _add_grid_args(p), _add_model_args(p), _add_io_args(p)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_kg)

    p = sub.add_parser("subordinate", help="Levy subordination identity check")
    _add_grid_args(p), _add_model_args(p), _add_io_args(p)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_subordinate)

    p = sub.add_parser("specfun", help="evaluate one special function")
    p.add_argument("--fn", required=True, choices=(
        "gamma", "recip-gamma", "bessel-i-scaled", "wright", "mittag-leffler",
        "levy-pdf", "levy-laplace", "hartman-watson"))
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--s", dest="s", type=str, default=None, help="complex argument, e.g. '0.5+0j'")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--beta", dest="beta_ml", type=float, default=None,
                   help="Mittag-Leffler second parameter")
    p.add_argument("--lambda", dest="lam", type=str, default=None, help="series argument")
    p.add_argument("--upper", type=str, default=None, help="JSON rows [[a, A], ...]")
    p.add_argument("--lower", type=str, default=None, help="JSON rows [[b, B], ...]")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--s-real", dest="s_real", type=float, default=None,
                   help="Laplace variable for levy-laplace")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--p", dest="p_arg", type=float, default=None)
    p.set_defaults(func=_cmd_specfun)

    p = sub.add_parser("mellin-barnes", help="contour reconstruction of a wave kernel value")
    _add_grid_args(p), _add_model_args(p)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--beta", type=int, choices=(0, 1), default=None)
    p.add_argument("--site", type=str, default=None, help="comma-separated site index")
    p.add_argument("--c", type=float, default=None, help="contour abscissa")
    p.add_argument("--T", type=float, default=None, help="contour truncation half-height")
    p.set_defaults(func=_cmd_mellin_barnes)

    p = sub.add_parser("dump-multiplier", help="tabulate operator symbols over the momentum grid")
    _add_grid_args(p)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--kind", choices=("dirac", "laplacian"), default=None)
    p.set_defaults(func=_cmd_dump_multiplier)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", type=str, default="all",
                   help="clifford | lattice | spectral | operators | specfun | solver | all")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # numerical/domain errors exit 1 with a message
        print(f"dfplattice: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
