"""The four benchmark workloads: seeded pools of ops drawn from a fixed catalog.

Each workload is a list of strata.  A stratum is a catalog of ``size``
inputs generated from a fixed root seed, so every catalog entry has a
committed reference output in ``reference.json`` (see ``make_reference.py``).
``--seed`` only chooses which ``per_pool`` entries of each stratum form the
pool and in which order the pool runs: the same seed gives the same pool,
and no seed can produce an op without a reference.

An op is a closed-loop call into the package.  ``run`` performs it and
``digest`` flattens its result into the fields the gate compares.  Ops look
up package functions through their modules at call time, so the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import env

env.import_ncjulia()

from ncjulia import cli, derivative, domain, fixtures, freepoly, numerics, realization  # noqa: E402

CATALOG_ROOT = 160609629
FUZZ_SAMPLES = 20
BPOINT_ARGS = ("--samples", "100")


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    digest: Callable[[object], dict]


@dataclass(frozen=True)
class Stratum:
    name: str
    size: int
    per_pool: int
    make: Callable[[np.random.Generator, Path, str], Op]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    # digest fields checked against an absolute limit instead of the reference
    bounded: dict = field(default_factory=dict)

    def _entry(self, stratum: Stratum, index: int, workdir: Path) -> Op:
        tag = zlib.crc32(f"{self.name}/{stratum.name}".encode())
        rng = np.random.default_rng([CATALOG_ROOT, tag, index])
        return stratum.make(rng, workdir, f"{stratum.name}/{index:02d}")

    def catalog(self, workdir: Path) -> list:
        """Every catalog entry, in catalog order (used to build the reference)."""
        return [self._entry(s, i, workdir) for s in self.strata for i in range(s.size)]

    def pool(self, seed: int, workdir: Path) -> list:
        """The seeded pool: ``per_pool`` entries of each stratum, in seeded order."""
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        ops = [
            self._entry(s, int(i), workdir)
            for s in self.strata
            for i in sorted(rng.choice(s.size, size=s.per_pool, replace=False))
        ]
        return [ops[i] for i in rng.permutation(len(ops))]


# --- digests ------------------------------------------------------------------


def _matrix_digest(prefix: str, m: np.ndarray, out: dict):
    """Norm, sums and trace of a matrix: a few floats that move with any entry."""
    m = np.asarray(m, dtype=np.complex128)
    flat = m.reshape(-1)
    weights = np.arange(1, flat.size + 1) / max(1, flat.size)
    out[f"{prefix}.shape"] = f"{m.shape[0]}x{m.shape[1]}"
    out[f"{prefix}.fro"] = float(np.linalg.norm(flat))
    for name, z in (("sum", flat.sum()), ("wsum", weights @ flat)):
        out[f"{prefix}.{name}.re"] = float(z.real)
        out[f"{prefix}.{name}.im"] = float(z.imag)
    if m.shape[0] == m.shape[1]:
        tr = np.trace(m)
        out[f"{prefix}.tr.re"] = float(tr.real)
        out[f"{prefix}.tr.im"] = float(tr.imag)


def flatten(obj, prefix: str, out: dict):
    """Flatten decoded CLI JSON or a result dict into ``{path: scalar}``."""
    if isinstance(obj, np.ndarray):
        _matrix_digest(prefix, obj, out)
    elif isinstance(obj, dict) and set(obj) == {"rows", "cols", "data"}:
        data = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
        _matrix_digest(prefix, data.reshape(obj["rows"], obj["cols"]), out)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            flatten(v, f"{prefix}[{i}]", out)
    elif isinstance(obj, (np.floating, np.integer, np.bool_)):
        out[prefix] = obj.item()
    else:
        out[prefix] = obj


def _cli_digest(raw) -> dict:
    code, text = raw
    out = {"exit_code": code}
    if text.strip():
        report = json.loads(text)
        # the message quotes rounded numbers; only its presence is a verdict
        if isinstance(report, dict) and "W_error" in report:
            report["W_error"] = report["W_error"] is not None
        flatten(report, "", out)
    return out


def _cli_op(key: str, argv: list) -> Op:
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue()

    return Op(key, run, _cli_digest)


def _write_json(workdir: Path, key: str, kind: str, obj) -> str:
    path = workdir / f"{key.replace('/', '-')}-{kind}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _colligation_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


# --- bpoint-small-n -----------------------------------------------------------


def _h1_point(n: int):
    def make(rng, workdir, key):
        t = freepoly.MatrixTuple((numerics.haar_unitary(n, rng), numerics.haar_unitary(n, rng)))
        point = _write_json(workdir, key, "point", freepoly.tuple_to_json(t))
        return _cli_op(key, ["bpoint", "--fixture", "example-h1", "--point", point, *BPOINT_ARGS])

    return make


def _cartan_point(rng, workdir, key):
    """Block-symmetric unitary point [[cV, isV], [isV, cV]] of cartan:2."""
    n = 1 + int(rng.integers(2))
    colligation = realization.random_realization(2, 2, _colligation_seed(rng))
    theta = float(rng.uniform(0.2, 1.3))
    v = numerics.haar_unitary(n, rng)
    c, s = np.cos(theta), np.sin(theta)
    t = freepoly.MatrixTuple((c * v, 1j * s * v, c * v))
    point = _write_json(workdir, key, "point", freepoly.tuple_to_json(t))
    real = _write_json(workdir, key, "realization", realization.realization_to_json(colligation))
    return _cli_op(
        key, ["bpoint", "--delta", "cartan:2", "--realization", real, "--point", point, *BPOINT_ARGS]
    )


def _ball_point(rng, workdir, key):
    """Column-isometry point (V1; V2) of ball:2; a diverging non-B-point."""
    n = 1 + int(rng.integers(2))
    colligation = realization.random_realization(2, 2, _colligation_seed(rng))
    u = numerics.haar_unitary(2 * n, rng)
    t = freepoly.MatrixTuple((u[:n, :n], u[n:, :n]))
    point = _write_json(workdir, key, "point", freepoly.tuple_to_json(t))
    real = _write_json(workdir, key, "realization", realization.realization_to_json(colligation))
    return _cli_op(
        key, ["bpoint", "--delta", "ball:2", "--realization", real, "--point", point, *BPOINT_ARGS]
    )


# --- fuzz-fresh ---------------------------------------------------------------


def _fuzz(delta: str, dim_e: int):
    def make(rng, workdir, key):
        argv = [
            "fuzz", "--samples", str(FUZZ_SAMPLES), "--seed", str(_colligation_seed(rng)),
            "--delta", delta, "--dim-E", str(dim_e),
        ]
        return _cli_op(key, argv)

    return make


# --- eval-large-n -------------------------------------------------------------


def _flat_digest(raw) -> dict:
    out = {}
    flatten(raw, "", out)
    return out


def _eval_point(delta_name: str, n: int):
    """The body of ``ncjulia eval`` at one interior point, through the library."""

    def make(rng, workdir, key):
        delta = fixtures.get_delta(delta_name)
        colligation = realization.random_realization(2, delta.J, _colligation_seed(rng))
        h = realization.NcFunctionHandle(realization=colligation, delta=delta)
        x = domain.random_interior_point(delta, n, rng, margin=0.05)

        def run():
            member = domain.in_G_delta(h.delta, x)
            u, cond = realization.eval_u(h, x, return_cond=True)
            phi = realization.eval_phi(h, x)
            residual = realization.model_residual(h, x, x)
            return {
                "phi": phi,
                "phi_norm": numerics.operator_norm(phi),
                "u": u,
                "u_norm": numerics.operator_norm(u),
                "delta_norm": member.norm,
                "margin": member.margin,
                "model_residual": residual,
                "resolvent_condition": cond,
            }

        return Op(key, run, _flat_digest)

    return make


# --- derivative-ladders -------------------------------------------------------

HOMOGENEITY_SCALES = (0.3, 0.5, 1.0)


def _admissible_direction(rng: np.random.Generator, n: int, shift: float = 0.3):
    """Direction pair with negative-definite Hermitian parts and norm <= 1."""
    comps = []
    for _ in range(2):
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        top = np.linalg.eigvalsh((g + g.conj().T) / 2.0)[-1]
        m = g - (top + shift) * np.eye(n)
        comps.append(m / max(1.0, np.linalg.norm(m, 2)))
    return freepoly.MatrixTuple(tuple(comps))


def _ladder(n: int):
    """Criterion-07 traffic at T = (I, I), W = I along one admissible direction."""

    def make(rng, workdir, key):
        h = fixtures.get_fixture("example-h1").handle
        t = freepoly.MatrixTuple((np.eye(n),) * 2)
        w = np.eye(n)
        direction = _admissible_direction(rng, n)

        def run():
            res = derivative.eta_numeric(h, t, w, direction)
            hom = [derivative.homogeneity_check(h, t, w, res, s) for s in HOMOGENEITY_SCALES]
            other = derivative.eta_numeric(h, t, w, direction, first_step=1e-2 / 3.0)
            return res, hom, other

        def digest(raw):
            res, hom, other = raw
            oracle = fixtures.example_eta(direction)
            return _flat_digest(
                {
                    "eta": res.eta,
                    "increments": res.convergence_increments,
                    "beta": res.beta,
                    "first_step": res.first_step,
                    "steps_used": res.steps_used,
                    "partial": res.partial,
                    "converged": res.converged,
                    "closed_form_error": float(
                        np.linalg.norm(res.eta - oracle, 2)
                        / max(1.0, np.linalg.norm(oracle, 2))
                    ),
                    "homogeneity_max": max(hom),
                    "ladder_difference": float(np.linalg.norm(res.eta - other.eta, 2)),
                }
            )

        return Op(key, run, digest)

    return make


# --- registry -----------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bpoint-small-n",
            (
                Stratum("h1-n1", 10, 6, _h1_point(1)),
                Stratum("h1-n2", 10, 6, _h1_point(2)),
                Stratum("h1-n4", 10, 6, _h1_point(4)),
                Stratum("cartan", 10, 4, _cartan_point),
                Stratum("ball", 10, 4, _ball_point),
            ),
        ),
        Workload(
            "fuzz-fresh",
            tuple(
                Stratum(f"{delta}-E{dim_e}", 8, 2, _fuzz(delta, dim_e))
                for delta in ("polydisk:2", "ball:3", "cartan:2")
                for dim_e in (1, 2)
            ),
            bounded={"model_identity.max_residual": 1e-9},
        ),
        Workload(
            "eval-large-n",
            tuple(
                Stratum(f"{delta}-n{n}", 4, 1, _eval_point(delta, n))
                for delta in ("polydisk:2", "ball:3", "cartan:2")
                for n in (16, 32, 64)
            ),
            bounded={"model_residual": 1e-9},
        ),
        Workload(
            "derivative-ladders",
            tuple(Stratum(f"n{n}", 10, 3, _ladder(n)) for n in (1, 2, 3)),
            bounded={
                "closed_form_error": 1e-6,
                "homogeneity_max": 1e-6,
                "ladder_difference": 1e-6,
            },
        ),
    )
}
