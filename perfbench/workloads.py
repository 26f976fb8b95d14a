"""The benchmark's workloads: seeded inputs, one timed job, and output checks.

Each workload has the same interface:

* ``setup(seed, workdir)``: generate the inputs from the seed and fill the
  package's lazy caches; returns the state the jobs share.
* ``references(state)``: untimed, once before the jobs: check references
  that do not depend on the job, stored in ``state``.
* ``draw(seed, job)``: the job's parameters, a function of (seed, job) only.
* ``prepare(state, draw)``: untimed per-job input preparation.
* ``run(state, draw, inputs)``: the timed job, a fixed sequence of calls.
* ``observe(state, draw, out)``: untimed, turns outputs into arrays.
* ``checks(state, draw)``: untimed: computes the job's own reference values
  once and returns one function of the observation per check name, comparing
  against an independent route.  A function returns the achieved error, or a
  list of errors for checks made once per draw.  ``tolerances`` gives each
  check's tolerance (the acceptance suite's, or 0 for exact).
* ``perturb(obs)``: (check name, perturbed observation) pairs for the
  self-test, each of which must make the named check fail.
* ``known_defects(state, seed)``: untimed, once after the jobs: the cases of
  known silent failures, outside the jobs, as ``Check`` rows.

Package functions are always looked up through the package modules at call
time, so that the traced run sees the calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import dfplattice as dfp
import dfplattice.cli  # noqa: F401  (bound as dfp.cli)
import dfplattice.fieldio  # noqa: F401
from dfplattice.lattice import Field, GridSpec
from dfplattice.solver import ModelParams

ALPHA = Fraction(1, 4)
SPACING = 1.0


@dataclass(frozen=True)
class Check:
    name: str
    achieved: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.achieved <= self.tol)


def evaluate(workload, checks: dict, obs, names=None):
    """Apply the job's checks (all, or only ``names``) to ``obs`` as ``Check`` rows."""
    rows = []
    for name, check in checks.items():
        if names is not None and name not in names:
            continue
        result = check(obs)
        errors = result if isinstance(result, list) else [result]
        rows += [Check(name, float(err), workload.tolerances[name]) for err in errors]
    return rows


class Workload:
    """Defaults for the optional steps of the interface above."""

    # timings scaled by host speed (run.py): set where the job's time follows
    # the interpreter-bound calibration block, as measured on each workload
    host_scaled = True

    def references(self, state) -> None:
        pass

    def prepare(self, state, draw):
        return None

    def known_defects(self, state, seed: int) -> list:
        return []


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _random_values(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sup(x) -> float:
    return float(np.max(np.abs(x)))


def _sup_diff(a, b) -> float:
    """sup|a - b|, one leading-axis slice at a time to keep temporaries small."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2:
        return _sup(a - b)
    return max(_sup(x - y) for x, y in zip(a, b))


def _rel(a, b) -> float:
    """sup|a - b| over max(1, sup|b|)."""
    return _sup_diff(a, b) / max(1.0, _sup(b))


def _bump(x: np.ndarray, amount: float = 1e-2) -> np.ndarray:
    """Copy of ``x`` with its largest element moved by ``amount * max(1, sup|x|)``."""
    y = np.array(x, dtype=complex, copy=True)
    flat = y.reshape(-1)
    flat[int(np.argmax(np.abs(flat)))] += amount * max(1.0, _sup(x))
    return y


def _params(d: dict) -> ModelParams:
    return ModelParams(d["mu"], d["sigma2"], d["hurst"])


# ------------------------------------------------------------- grid3d_cli

def _csv_header(spec: GridSpec) -> list:
    return [f"k{j + 1}" for j in range(spec.n)] + ["mask", "re", "im"]


def write_csv(path: str, values: np.ndarray, spec: GridSpec) -> None:
    """Field CSV in the package schema (k1..kn,mask,re,im), written independently."""
    idx = np.indices(spec.site_shape).reshape(spec.n, -1).T.tolist()
    with open(path, "w") as fh:
        fh.write(",".join(_csv_header(spec)) + "\n")
        for mask in range(values.shape[0]):
            blade = values[mask].reshape(-1)
            if not blade.any():
                continue
            fh.writelines(
                ",".join(map(str, k)) + f",{mask},{re!r},{im!r}\n"
                for k, re, im in zip(idx, blade.real.tolist(), blade.imag.tolist())
                if re or im
            )


def read_csv(path: str, spec: GridSpec) -> np.ndarray:
    """Parse a site-field CSV with numpy's text reader (not the package's)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != _csv_header(spec):
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = np.zeros((spec.nblades,) + spec.site_shape, dtype=complex)
    ints = rows[:, : spec.n + 1].astype(np.intp)
    out[(ints[:, spec.n],) + tuple(ints[:, j] for j in range(spec.n))] = rows[:, -2] + 1j * rows[:, -1]
    return out


class Grid3dCli(Workload):
    """Two in-process CLI calls at 3D N=32: ``kernel`` (writes) then ``evolve --input`` (reads, writes)."""

    name = "grid3d_cli"
    trace_jobs = 2
    spec = GridSpec(3, SPACING, ALPHA, 32)
    # the scalar blade only, so that evolve writes 7 blades (a 7-blade input
    # gives 22) and five jobs fit in one run's share of the time budget
    input_blades = (0,)
    tolerances = {"kernel_readback_exact": 0.0, "kernel_unit_mass": 1e-10, "evolve_readback_exact": 0.0}

    def setup(self, seed: int, workdir: str):
        rng = _rng(seed, 0)
        values = np.zeros((self.spec.nblades,) + self.spec.site_shape, dtype=complex)
        for mask in self.input_blades:
            values[mask] = _random_values(rng, self.spec.site_shape)
        values /= np.abs(values[0]).sum() * self.spec.cell_volume
        values.setflags(write=False)
        path = os.path.join(workdir, "input.csv")
        write_csv(path, values, self.spec)
        dfp.operators.symbol_tables(self.spec)
        dfp.clifford.generator_tables(self.spec.n)
        return {"phi0": values, "input": path, "workdir": workdir}

    def draw(self, seed: int, job: int) -> dict:
        rng = _rng(seed, 1, job)
        return {
            "t": _uniform(rng, 0.4, 1.2),
            "mu": _uniform(rng, 0.5, 1.5),
            "sigma2": _uniform(rng, 0.5, 1.0),
            "hurst": _uniform(rng, 0.55, 0.9),
        }

    def _argv(self, command: str, draw: dict) -> list:
        spec = self.spec
        argv = [command, "--dim", str(spec.n), "--points", str(spec.N), "--h", repr(spec.h),
                "--alpha", str(spec.alpha)]
        for key in ("mu", "sigma2", "hurst", "t"):
            argv += [f"--{key}", repr(draw[key])]
        return argv

    def run(self, state, draw, inputs):
        wd = state["workdir"]
        kernel_out, evolve_out = os.path.join(wd, "kernel.csv"), os.path.join(wd, "evolve.csv")
        rc_kernel = dfp.cli.main(self._argv("kernel", draw) + ["--out", kernel_out])
        rc_evolve = dfp.cli.main(self._argv("evolve", draw) + ["--input", state["input"], "--out", evolve_out])
        return {"rc": (rc_kernel, rc_evolve), "paths": (kernel_out, evolve_out)}

    def observe(self, state, draw, out):
        if out["rc"] != (0, 0):
            raise RuntimeError(f"CLI exit codes {out['rc']}")
        kernel, evolve = (read_csv(p, self.spec) for p in out["paths"])
        return {"kernel": kernel, "evolve": evolve}

    def checks(self, state, draw):
        spec, params = self.spec, _params(draw)
        kernel = dfp.dfp_kernel(spec, draw["t"], params).values
        evolved = dfp.dfp_evolve(Field(spec, state["phi0"]), draw["t"], params).values
        return {
            "kernel_readback_exact": lambda obs: _sup_diff(obs["kernel"], kernel),
            "kernel_unit_mass": lambda obs: abs(obs["kernel"][0].sum().real * spec.cell_volume - 1.0),
            "evolve_readback_exact": lambda obs: _sup_diff(obs["evolve"], evolved),
        }

    def perturb(self, obs):
        yield "kernel_readback_exact", {**obs, "kernel": _bump(obs["kernel"], 1e-12)}
        unit = obs["kernel"].copy()
        unit[0] *= 1.0 + 1e-8
        yield "kernel_unit_mass", {**obs, "kernel": unit}
        yield "evolve_readback_exact", {**obs, "evolve": _bump(obs["evolve"], 1e-12)}


# ----------------------------------------------------------------- dense3d

def cayley_tensor(n: int) -> np.ndarray:
    """C[i, j, k] = sign of blade_i blade_j if it equals blade_k, else 0.

    Built by sorting generator sequences, independently of the package's
    bitmask product table.
    """
    nb = 1 << (2 * n)
    out = np.zeros((nb, nb, nb))
    for i in range(nb):
        for j in range(nb):
            seq = [g for g in range(2 * n) if i >> g & 1] + [g for g in range(2 * n) if j >> g & 1]
            sign = 1
            for a in range(len(seq)):  # one sign flip per inversion: the swaps that sort seq
                for b in range(a + 1, len(seq)):
                    if seq[a] > seq[b]:
                        sign = -sign
            for g in range(2 * n):
                if i >> g & 1 and j >> g & 1 and g < n:
                    sign = -sign  # first n generators square to -1
            out[i, j, i ^ j] = sign
    return out


def direct_convolution(K: np.ndarray, f: np.ndarray, site, spec: GridSpec, cayley: np.ndarray) -> np.ndarray:
    """(K * f)(x) = sum_y h^n K(x - y) f(y) at one site, as a literal lattice sum."""
    live = [i for i in range(K.shape[0]) if np.any(K[i])]
    # shifted[i, y] = K_i(x - y), indexed per axis modulo N
    axes = [(x - np.arange(spec.N)) % spec.N for x in site]
    shifted = K[np.ix_(live, *axes)]
    pair_sums = shifted.reshape(len(live), -1) @ f.reshape(f.shape[0], -1).T
    return spec.cell_volume * np.einsum("ijk,ij->k", cayley[live], pair_sums)


def direct_mode(values: np.ndarray, mode, spec: GridSpec) -> np.ndarray:
    """sum_x values(x) e^{+i x.xi} at one momentum node (ascending-k position ``mode``)."""
    k = np.array(mode) - spec.N // 2 + 1
    sites = np.indices(spec.site_shape).reshape(spec.n, -1)
    phase = np.exp(2j * np.pi * (k @ sites) / spec.N)
    return values.reshape(values.shape[0], -1) @ phase


def dirac_symbol_vector(mode, spec: GridSpec) -> np.ndarray:
    """z(xi) as a blade vector, from the symbol's closed form."""
    a, h, n = float(spec.alpha), spec.h, spec.n
    xi = 2.0 * np.pi * (np.array(mode) - spec.N // 2 + 1) / (spec.N * h)
    z = np.zeros(spec.nblades, dtype=complex)
    for j, c in enumerate(xi):
        z[1 << j] = -1j * (np.sin((1.0 - a) * h * c) + np.sin(a * h * c)) / h
        z[1 << (n + j)] = (np.cos(a * h * c) - np.cos((1.0 - a) * h * c)) / h
    return z


class Dense3d(Workload):
    """Library calls at 3D N=32 on fields with all 64 blades live; no IO."""

    name = "dense3d"
    trace_jobs = 3
    # bulk two-thread numpy: its job times did not follow the calibration block
    host_scaled = False
    spec = GridSpec(3, SPACING, ALPHA, 32)
    n_points = 3
    tolerances = {
        "dft_roundtrip": 1e-12,
        "sesquilinear_hermitian": 1e-12,
        "evolve_mass": 1e-10,
        "convolve_direct_sum": 1e-12,
        "kernel_convolve_direct_sum": 1e-12,
        "dirac_symbol_modes": 1e-12,
    }

    def setup(self, seed: int, workdir: str):
        rng = _rng(seed, 0)
        spec = self.spec
        shape = (spec.nblades,) + spec.site_shape
        f = Field(spec, _random_values(rng, shape), _copy=False)
        g = Field(spec, _random_values(rng, shape), _copy=False)
        points = [tuple(int(v) for v in rng.integers(0, spec.N, spec.n)) for _ in range(self.n_points)]
        dfp.clifford.product_table(spec.n)
        dfp.clifford.generator_tables(spec.n)
        dfp.clifford.dagger_signs(spec.n)
        dfp.operators.symbol_tables(spec)
        return {"f": f, "g": g, "points": points}

    def references(self, state) -> None:
        """Phase-free references on the seed fields, computed once before the jobs."""
        f, g, spec, points = state["f"].values, state["g"].values, self.spec, state["points"]
        cayley = cayley_tensor(spec.n)
        state["cayley"] = cayley
        state["pairing_gf"] = dfp.sesquilinear(state["g"], state["f"]).to_array()
        state["conv_sites"] = [direct_convolution(f, g, x, spec, cayley) for x in points]
        # z(xi) F f(xi) at the seeded nodes, for the Dirac check
        state["dirac_modes"] = [
            np.einsum("i,j,ijk->k", dirac_symbol_vector(m, spec), direct_mode(f, m, spec), cayley) for m in points
        ]

    def draw(self, seed: int, job: int) -> dict:
        rng = _rng(seed, 1, job)
        return {
            "t": _uniform(rng, 0.4, 1.2),
            "mu": _uniform(rng, 0.5, 1.5),
            "sigma2": _uniform(rng, 0.5, 1.0),
            "hurst": _uniform(rng, 0.55, 0.9),
            "phase": _uniform(rng, 0.0, 2.0 * np.pi),
        }

    def prepare(self, state, draw):
        # a fresh phase per job, so no two jobs see the same input
        return Field(self.spec, np.exp(1j * draw["phase"]) * state["f"].values, _copy=False)

    def run(self, state, draw, f):
        g, params, t = state["g"], _params(draw), draw["t"]
        evolved = dfp.dfp_evolve(f, t, params)
        dirac = dfp.dirac_apply(f)
        roundtrip = dfp.dft_inverse(dfp.dft_forward(f))
        conv = dfp.convolve(f, g)
        kernel = dfp.dfp_kernel(self.spec, t, params)
        kernel_conv = dfp.convolve(kernel, g)
        pairing = dfp.sesquilinear(f, g)
        return {"f": f, "evolved": evolved, "dirac": dirac, "roundtrip": roundtrip, "conv": conv,
                "kernel": kernel, "kernel_conv": kernel_conv, "pairing": pairing}

    def observe(self, state, draw, out):
        obs = {k: v.values for k, v in out.items() if k != "pairing"}
        obs["pairing_dagger"] = out["pairing"].dagger().to_array()
        return obs

    def checks(self, state, draw):
        spec, g, points = self.spec, state["g"].values, state["points"]
        phase = np.exp(1j * draw["phase"])
        # the job's kernel, made by a second call rather than read from the job
        kernel = dfp.dfp_kernel(spec, draw["t"], _params(draw)).values
        kernel_conv_sites = [direct_convolution(kernel, g, x, spec, state["cayley"]) for x in points]

        def mass(values):
            return values.reshape(spec.nblades, -1).sum(axis=1) * spec.cell_volume

        def at_points(values, want):
            return max(_rel(values[(slice(None),) + x], r) for x, r in zip(points, want))

        def dirac_modes(obs):
            # F[D f](xi) = z(xi) F[f](xi) at the seeded nodes
            return max(_rel(direct_mode(obs["dirac"], m, spec), phase * r)
                       for m, r in zip(points, state["dirac_modes"]))

        return {
            "dft_roundtrip": lambda obs: _sup_diff(obs["roundtrip"], obs["f"]),
            # <f, g>^dagger = <g, f>, and <g, e^{i phase} f> = e^{i phase} <g, f>
            "sesquilinear_hermitian": lambda obs: _rel(obs["pairing_dagger"], phase * state["pairing_gf"]),
            "evolve_mass": lambda obs: _rel(mass(obs["evolved"]), mass(obs["f"])),
            "convolve_direct_sum": lambda obs: at_points(obs["conv"], [phase * r for r in state["conv_sites"]]),
            "kernel_convolve_direct_sum": lambda obs: at_points(obs["kernel_conv"], kernel_conv_sites),
            "dirac_symbol_modes": dirac_modes,
        }

    def perturb(self, obs):
        yield "dft_roundtrip", {**obs, "roundtrip": _bump(obs["roundtrip"])}
        yield "sesquilinear_hermitian", {**obs, "pairing_dagger": _bump(obs["pairing_dagger"])}
        yield "evolve_mass", {**obs, "evolved": _bump(obs["evolved"])}
        yield "convolve_direct_sum", {**obs, "conv": obs["conv"] * (1.0 + 1e-6)}
        yield "kernel_convolve_direct_sum", {**obs, "kernel_conv": obs["kernel_conv"] * (1.0 + 1e-6)}
        yield "dirac_symbol_modes", {**obs, "dirac": obs["dirac"] * (1.0 + 1e-6)}


# ------------------------------------------------------------------ desk1d

def levy_half(u: np.ndarray) -> np.ndarray:
    """Closed form of the one-sided stable density at index 1/2."""
    return u**-1.5 * np.exp(-1.0 / (4.0 * u)) / (2.0 * np.sqrt(np.pi))


class Desk1d(Workload):
    """Many small 1D calls (N=16..64): RK4 twin, subordination, Mellin-Barnes,
    Wright and Bessel kernel routes, and a Levy density scan.

    Every job makes the same calls; the draws sit in narrow per-slot ranges so
    job costs form one group, and every call of a job meets its contract.
    The regimes of the known silent failures (ROADMAP item 4) are probed
    once per run after the jobs instead (``known_defects``): the Wright-route
    kernel at large mu t, and the Bessel heat kernel at tau=10, N=4 and
    tau=20, N=8.
    """

    name = "desk1d"
    trace_jobs = 4
    sizes = (4, 8, 16, 32, 64)
    rk4_steps = 300
    # step from the spectral solution at t=0.05: t^(2H-1) is not smooth at 0,
    # and from 0 RK4 needs thousands of steps for the 1e-6 contract
    rk4_start = 0.05
    wright_sizes = (16, 32, 64, 64, 16, 32, 64, 64)
    bessel_slots = ((16, 0.2), (16, 0.6), (32, 0.3), (32, 0.9), (64, 0.4), (64, 0.8))
    levy_points = 96
    tolerances = {
        "rk4_vs_spectral": 1e-6,
        "subordination_sitewise": 1e-5,
        "subordination_modewise": 1e-5,
        "mellin_barnes_vs_direct": 1e-3,
        "levy_half_closed_form": 1e-12,
        "wright_vs_trig": 1e-12,
        "bessel_vs_multiplier": 1e-10,
    }

    @staticmethod
    def grid(N: int) -> GridSpec:
        return GridSpec(1, SPACING, ALPHA, N)

    def setup(self, seed: int, workdir: str):
        rng = _rng(seed, 0)
        fields = {N: Field(self.grid(N), _random_values(rng, (4, N)), _copy=False) for N in (16, 32)}
        for N in self.sizes:
            dfp.operators.symbol_tables(self.grid(N))
        dfp.clifford.generator_tables(1)
        dfp.specfun.levy_pdf(0.5, 0.1)  # integral route: fills the Levy quadrature grid at index 1/2
        return {"fields": fields}

    def draw(self, seed: int, job: int) -> dict:
        rng = _rng(seed, 1, job)
        u = lambda lo, hi: _uniform(rng, lo, hi)  # noqa: E731
        return {
            "rk4": {"t": u(0.7, 0.9), "mu": u(0.8, 1.2), "sigma2": u(0.6, 0.9), "hurst": u(0.55, 0.85)},
            "sub": {"t": u(0.7, 0.9), "mu": u(0.9, 1.1), "sigma2": u(0.9, 1.1), "hurst": u(0.65, 0.75)},
            "mb": {"t": u(0.45, 0.55), "mu": u(0.9, 1.1), "sigma2": u(0.9, 1.1), "hurst": u(0.78, 0.82),
                   "beta": job % 2, "site": int(rng.integers(0, 16))},
            "wright": [
                {"N": N, "t": u(0.8, 1.2), "mu": u(0.8, 1.2), "sigma2": u(0.3, 0.7), "hurst": 0.8, "beta": k % 2}
                for k, N in enumerate(self.wright_sizes)
            ],
            "bessel": [{"N": N, "tau": u(tau, tau + 0.1)} for N, tau in self.bessel_slots],
            "levy_u": np.exp(np.linspace(np.log(0.05), np.log(20.0), self.levy_points) + u(-0.02, 0.02)),
        }

    def run(self, state, draw, inputs):
        fields = state["fields"]
        rk, sub, mb = draw["rk4"], draw["sub"], draw["mb"]
        return {
            "rk4": dfp.dfp_evolve_stepped(fields[32], rk["t"], _params(rk), self.rk4_steps, t_start=self.rk4_start),
            "sub_site": dfp.levy_subordination_check(fields[16], sub["t"], _params(sub)),
            "sub_mode": dfp.levy_subordination_modewise(fields[16], sub["t"], _params(sub)),
            "mb": dfp.mellin_barnes_kernel((mb["site"],), mb["t"], self.grid(16), _params(mb), mb["beta"]),
            "wright": [
                dfp.kg_kernel(self.grid(w["N"]), w["t"], _params(w), w["beta"], route="wright")
                for w in draw["wright"]
            ],
            "bessel": [dfp.heat_kernel(self.grid(b["N"]), b["tau"], route="bessel") for b in draw["bessel"]],
            "levy": [dfp.specfun.levy_pdf_eval(0.5, float(x)).value for x in draw["levy_u"]],
        }

    def observe(self, state, draw, out):
        return {
            "rk4": out["rk4"].values,
            "sub_site": tuple(f.values for f in out["sub_site"]),
            "sub_mode": tuple(f.values for f in out["sub_mode"]),
            "mb": complex(out["mb"].value),
            "wright": [f.values for f in out["wright"]],
            "bessel": [f.values for f in out["bessel"]],
            "levy": np.array(out["levy"]),
        }

    def checks(self, state, draw):
        rk, mb = draw["rk4"], draw["mb"]
        rk4 = dfp.dfp_evolve(state["fields"][32], rk["t"], _params(rk)).values
        mb_direct = dfp.kg_kernel(self.grid(16), mb["t"], _params(mb), mb["beta"]).values[0, mb["site"]]
        wright = [
            dfp.kg_kernel(self.grid(w["N"]), w["t"], _params(w), w["beta"], route="trig").values
            for w in draw["wright"]
        ]
        bessel = [dfp.heat_kernel(self.grid(b["N"]), b["tau"], route="multiplier").values for b in draw["bessel"]]

        def pair_err(pair):
            return _sup(pair[0] - pair[1]) / _sup(pair[0])

        return {
            "rk4_vs_spectral": lambda obs: _sup(obs["rk4"] - rk4) / _sup(rk4),
            "subordination_sitewise": lambda obs: pair_err(obs["sub_site"]),
            "subordination_modewise": lambda obs: pair_err(obs["sub_mode"]),
            "mellin_barnes_vs_direct": lambda obs: abs(obs["mb"] - mb_direct),
            "levy_half_closed_form": lambda obs: _sup(obs["levy"] / levy_half(draw["levy_u"]) - 1.0),
            "wright_vs_trig": lambda obs: [_sup(got - want) for got, want in zip(obs["wright"], wright)],
            "bessel_vs_multiplier": lambda obs: [_sup(got - want) for got, want in zip(obs["bessel"], bessel)],
        }

    def known_defects(self, state, seed: int) -> list:
        """The ROADMAP item 4 cases, against the same independent routes as the jobs."""
        rng = _rng(seed, 2)
        # kernel --points 64 --t 20 --sigma2 0 --beta 0 --route wright, at a seeded t near 20
        w = {"N": 64, "t": _uniform(rng, 19.0, 21.0), "mu": 1.0, "sigma2": 0.0, "hurst": 0.8, "beta": 0}
        got = dfp.kg_kernel(self.grid(w["N"]), w["t"], _params(w), w["beta"], route="wright").values
        want = dfp.kg_kernel(self.grid(w["N"]), w["t"], _params(w), w["beta"], route="trig").values
        rows = [Check(f"wright_vs_trig at N=64, t={w['t']:.4f}, sigma2=0, beta=0", _sup(got - want),
                      self.tolerances["wright_vs_trig"])]
        for N, lo, hi in ((4, 9.5, 10.5), (8, 19.0, 21.0)):
            grid, tau = self.grid(N), _uniform(rng, lo, hi)
            got = dfp.heat_kernel(grid, tau, route="bessel").values
            want = dfp.heat_kernel(grid, tau, route="multiplier").values
            rows.append(Check(f"bessel_vs_multiplier at N={N}, tau={tau:.4f}", _sup(got - want),
                              self.tolerances["bessel_vs_multiplier"]))
        return rows

    def perturb(self, obs):
        yield "rk4_vs_spectral", {**obs, "rk4": _bump(obs["rk4"])}
        l, r = obs["sub_site"]
        yield "subordination_sitewise", {**obs, "sub_site": (l, _bump(r))}
        l, r = obs["sub_mode"]
        yield "subordination_modewise", {**obs, "sub_mode": (l, _bump(r))}
        yield "mellin_barnes_vs_direct", {**obs, "mb": obs["mb"] + 1e-2}
        yield "levy_half_closed_form", {**obs, "levy": obs["levy"] * (1.0 + 1e-9)}
        yield "wright_vs_trig", {**obs, "wright": [_bump(w, 1e-9) for w in obs["wright"]]}
        yield "bessel_vs_multiplier", {**obs, "bessel": [_bump(b, 1e-8) for b in obs["bessel"]]}


WORKLOADS = {w.name: w for w in (Grid3dCli(), Dense3d(), Desk1d())}
