"""Command-line interface: evaluation, boundary reports, fuzzing, fixtures.

Each subcommand takes only the options its handler reads.  Handle sources,
seed, sweep sizes, step counts, the isometry tolerance and output format are
declared once, in ``_OPTIONS``, and validated by their argparse types: the
tolerance is finite and > 0, counts have a lower bound, seeds are >= 0.
Defaults the library shares are its named constants.  The verdicts'
thresholds, the sampling margin and the first steps are constants, not
options: ``boundary.RANGE_TOL``, ``boundary.JULIA_RTOL``,
``domain.SAMPLE_MARGIN``, fuzz's model-identity ``_MODEL_RESIDUAL_TOL``,
``domain.SEQUENCE_FIRST_STEP`` and ``derivative.LADDER_FIRST_STEP``.

Exit codes: 0 success (and verdict true for ``bpoint``), 1 verdict false or
violations found, 2 parse error or invalid option value, 3 precondition
violation.  ``bpoint`` exits on its ``is_bpoint`` verdict only, whatever its
``julia.violations``; only ``fuzz`` exits 1 on violations.  All numeric
output is printed with 17 significant digits so regressions are bit-stable.
A run is set by its arguments alone; no environment variable is read.
``--fixture F`` fills whichever of ``--delta`` and ``--realization`` is
absent, and a point file holds ``{"components": [...]}`` or
``{"scalars": [...]}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import boundary, derivative, domain, fixtures, freepoly, numerics, realization
from .errors import ParseError, PreconditionError, UnknownNameError

# --- deterministic JSON/text rendering --------------------------------------


def _render_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return f"{x:.17g}"


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def render_text(obj, prefix: str = "") -> list:
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            lines.extend(render_text(v, key))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            lines.extend(render_text(v, f"{prefix}[{i}]"))
    elif isinstance(obj, (float, np.floating)):
        rendered = _render_float(float(obj)).strip('"')
        lines.append(f"{prefix} = {rendered}")
    else:
        lines.append(f"{prefix} = {obj}")
    return lines


def emit(obj, output: str):
    text = "\n".join(render_text(obj)) if output == "text" else render_json(obj)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # a reader that closed the pipe early changes no exit code; /dev/null takes
        # the interpreter's flush of stdout at exit, which would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --- options -------------------------------------------------------------------


def _positive(text: str) -> float:
    """argparse type: a finite number > 0 (NaN and infinity are refused)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _at_least(k: int, at_most: float = math.inf):
    """argparse type: an integer >= k (and <= at_most)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not k <= value <= at_most:
            cap = "" if at_most == math.inf else f" and <= {at_most}"
            raise argparse.ArgumentTypeError(f"expected an integer >= {k}{cap}, got {text!r}")
        return value

    return parse


# Handle sources, seed, sweep sizes, step counts, the isometry tolerance and output format,
# each declared once as flag -> argparse keywords.  A subcommand adds, with
# ``_add_options``, only the flags its handler reads.
_OPTIONS = {
    "--fixture": dict(help="named fixture for whichever of --delta and --realization is absent"),
    "--delta": dict(help="delta file or name (polydisk:2, ball:3, cartan:2)"),
    "--realization": dict(help="realization file or fixture name"),
    "--seed": dict(type=_at_least(0), default=boundary.SEED, help="seed of the random samples"),
    "--samples": dict(type=_at_least(1), default=boundary.JULIA_SAMPLES, help="sweep sample count"),
    "--steps": dict(
        type=_at_least(2), default=boundary.SEQUENCE_STEPS, help="approach-sequence steps"
    ),
    "--isometry-tol": dict(
        type=_positive, default=realization.ISOMETRY_TOL, help="realization isometry tolerance"
    ),
    "--output": dict(choices=("json", "text"), default="json"),
}


def _add_options(parser: argparse.ArgumentParser, *flags: str):
    for flag in (*flags, "--output"):
        parser.add_argument(flag, **_OPTIONS[flag])


# --- input resolution ---------------------------------------------------------


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    # an integer literal longer than Python converts, or nesting deeper than its recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None


def _resolve(name_or_path: str, from_json, by_name):
    """``from_json`` of the JSON file name_or_path if it exists, else ``by_name`` of the name."""
    if os.path.exists(name_or_path):
        return from_json(_load_json_file(name_or_path))
    try:
        return by_name(name_or_path)
    except UnknownNameError as exc:  # neither a file nor a known name: say both
        raise ParseError(f"no file {name_or_path!r}, and {exc}") from None


def _resolve_handle(args) -> realization.NcFunctionHandle:
    """The handle of ``--delta`` and ``--realization``; ``--fixture`` fills whichever is absent."""
    colligation = args.realization or args.fixture
    delta = args.delta or args.fixture
    if colligation is None or delta is None:
        raise ParseError("need either --fixture or both --delta and --realization")
    from_json = functools.partial(realization.realization_from_json, isometry_tol=args.isometry_tol)
    return realization.NcFunctionHandle(
        realization=_resolve(
            colligation, from_json, lambda name: fixtures.get_fixture(name).realization
        ),
        delta=_resolve(delta, domain.delta_from_json, fixtures.get_delta),
    )


def _load_point(path: str) -> freepoly.MatrixTuple:
    return freepoly.tuple_from_json(_load_json_file(path))


# --- commands -----------------------------------------------------------------


def cmd_eval(args) -> int:
    handle = _resolve_handle(args)
    point = _load_point(args.point)
    ev = realization.evaluate(handle, point)
    cond = realization.resolvent_condition(handle, point)
    at_x = (ev.phi, ev.u, ev.delta)
    residual = realization.identity_defect(handle.realization, at_x, at_x)
    emit(
        {
            "phi": numerics.matrix_to_json(ev.phi),
            "phi_norm": numerics.operator_norm(ev.phi),
            "u": numerics.matrix_to_json(ev.u),
            "u_norm": numerics.operator_norm(ev.u),
            "delta_norm": ev.delta_norm,
            "margin": 1.0 - ev.delta_norm,
            "model_residual": residual,
            "resolvent_condition": cond,
        },
        args.output,
    )
    return 0


def _jsonable_alpha(a: boundary.AlphaEstimate, path: boundary.SequenceEvaluation) -> dict:
    return {
        "alpha": a.alpha,
        "quotients": path.quotients.value.tolist(),
        "steps": list(path.points.steps),
        "increments": list(a.increments),
        "converged": a.converged,
        "diverging": a.diverging,
        "is_liminf": a.is_liminf,
    }


def _jsonable_report(r: boundary.BPointReport) -> dict:
    bv, rt = r.boundary_value, r.range_test
    model = None if rt is None else rt.model
    out = {
        "T": freepoly.tuple_to_json(r.point.t),
        "delta_norm_at_T": r.point.delta_norm,
        "on_distinguished_boundary": r.point.distinguished,
        "sequence": {
            "kind": r.path.points.kind,
            "steps": list(r.path.points.steps),
            "dropped": r.path.points.dropped,
        },
        "alpha": _jsonable_alpha(r.alpha, r.path),
        "is_bpoint": r.is_bpoint,
        "conditional": False if rt is None else rt.conditional,
        "julia": {
            "checked": r.julia.checked,
            "violations": r.julia.violations,
            "skipped": r.julia.skipped,
            "max_ratio": r.julia.max_ratio,
        },
        "W": None if bv is None else numerics.matrix_to_json(bv.W),
        "W_unitary_distance": None if bv is None else bv.unitary_distance,
        "W_error": r.W_error,
        "u_T": None if model is None else numerics.matrix_to_json(model.u_T),
    }
    if model is not None:
        out["u_T_norm_sq"] = model.alpha_model
    for key in ("range_residual", "kernel_orthogonality", "kernel_defect"):
        out[key] = None if model is None else getattr(model, key)
    out["boundary_identity_max_residual"] = r.julia.identity_max
    if rt is not None:
        out["inward_witness"] = {
            "found": rt.inward_witness.found,
            "beta": rt.inward_witness.beta,
        }
    if r.tfae is not None:
        out["tfae"] = {
            "sup_gram_quotient": r.tfae.sup_gram_quotient,
            "sup_scalar_quotient": r.tfae.sup_scalar_quotient,
            "sup_model_norm_sq": r.tfae.sup_model_norm_sq,
            # "every model vector" is the one canonical model vector
            "sup_model_norm_sq_all": r.tfae.sup_model_norm_sq,
            "aperture": r.tfae.aperture,
            "n_points": len(r.path.points.steps),
            "comparability": r.tfae.comparability,
        }
    return out


def cmd_bpoint(args) -> int:
    handle = _resolve_handle(args)
    t = _load_point(args.point)
    direction = None if args.ray is None else _load_point(args.ray)
    report = boundary.analyze_bpoint(
        handle,
        t,
        direction=direction,
        num_steps=args.steps,
        julia_samples=args.samples,
        seed=args.seed,
    )
    emit(_jsonable_report(report), args.output)
    return 0 if report.is_bpoint else 1


# norm of the perturbation of D that fuzz --no-isometry adds to each colligation
_PERTURBATION = 0.05
# largest model residual model_residual(h, x, x) that fuzz counts as no violation
_MODEL_RESIDUAL_TOL = 1e-9
# fuzz's Julia sub-sweep: at every _JULIA_EVERY-th sample on the polydisk, a path of
# _JULIA_PATH_STEPS steps to a Haar-unitary T, then _JULIA_POINTS interior points
_JULIA_PATH_STEPS = 18
_JULIA_EVERY = 10
_JULIA_POINTS = 5


def _colligations(args, J: int, seed) -> realization.Realization:
    """Fuzz's colligation of a seed, or a block's stack of them: perturbed under --no-isometry."""
    r = realization.random_realization(args.dim_E, J, seed)
    return realization.perturb_realization(r, _PERTURBATION, seed) if args.no_isometry else r


def _model_identity_defects(args, delta, samples) -> np.ndarray:
    """``model_residual(h, x, x)`` at each (seed, draft) sample of one matrix size.

    x is the draft scaled into the domain; one stacked solve serves the samples.
    """
    drafts = np.concatenate([draft for _, draft in samples], axis=1)
    stack = domain.scale_into_domain(delta, drafts, domain.SAMPLE_MARGIN)
    colligations = _colligations(args, delta.J, [seed for seed, _ in samples])
    ev = realization.evaluate_stack(realization.NcFunctionHandle(colligations, delta), stack)
    at_x = (ev.phi, ev.u, ev.delta)
    return realization.identity_defect(colligations, at_x, at_x)


def cmd_fuzz(args) -> int:
    delta = _resolve(args.delta, domain.delta_from_json, fixtures.get_delta)
    if args.dim_E * delta.J > fixtures.MAX_FAMILY_SIZE:
        raise ParseError(
            f"--dim-E times the grid size J must be at most {fixtures.MAX_FAMILY_SIZE}, "
            f"got {args.dim_E} * {delta.J}"
        )
    rng = np.random.default_rng(args.seed)
    # (seed, Gaussian draft) of the samples of each matrix size whose model identity is
    # unchecked; a size's samples are checked once they fill one stacked solve
    pending, defects, sweeps = {1: [], 2: []}, [], []
    rows = {n: realization.solve_rows(delta, args.dim_E, n) for n in pending}
    # Haar-unitary tuples lie on the distinguished boundary of the polydisk only;
    # the shape test first, so a small grid over many variables builds no d x d grid
    square = len(delta.entries) == len(delta.entries[0]) == delta.d
    run_julia = square and delta == fixtures.polydisk_delta(delta.d)

    for k in range(args.samples):
        n = int(rng.integers(1, 3))
        # the draws of random_interior_point; its scaling takes none, so it can wait
        pending[n].append((args.seed + k, domain.gaussian_drafts(delta.d, n, rng, 1)))
        if len(pending[n]) == rows[n]:
            defects.append(_model_identity_defects(args, delta, pending[n]))
            pending[n] = []
        if run_julia and k % _JULIA_EVERY == 0:
            colligation = _colligations(args, delta.J, args.seed + k)
            handle = realization.NcFunctionHandle(realization=colligation, delta=delta)
            t = freepoly.MatrixTuple(
                tuple(numerics.haar_unitary(n, rng) for _ in range(delta.d))
            )
            try:
                path = boundary.evaluate_sequence(
                    handle, t, None, _JULIA_PATH_STEPS, domain.SEQUENCE_FIRST_STEP
                )
                alpha = boundary.estimate_alpha(path)
                w = boundary.extract_W(path).W
            except ValueError:  # every error class of the package is a ValueError
                continue
            if not alpha.converged:
                continue
            bp = domain.boundary_point(delta, t)
            sweeps.append(boundary.julia_sweep(handle, rng, _JULIA_POINTS, bp, w, alpha.alpha))

    defects += [_model_identity_defects(args, delta, s) for s in pending.values() if s]
    defects = np.concatenate(defects)
    model_violations = int(np.count_nonzero(defects > _MODEL_RESIDUAL_TOL))
    max_model_residual = float(np.fmax.reduce(defects, initial=0.0))  # a NaN defect is no maximum
    julia = {k: sum(getattr(s, k) for s in sweeps) for k in ("checked", "violations", "skipped")}
    emit(
        {
            "samples": args.samples,
            "seed": args.seed,
            "dim_E": args.dim_E,
            "J": delta.J,
            "model_identity": {
                "checked": args.samples,
                "violations": model_violations,
                "max_residual": max_model_residual,
                "tolerance": _MODEL_RESIDUAL_TOL,
            },
            "julia_inequality": julia,
        },
        args.output,
    )
    return 1 if (model_violations or julia["violations"]) else 0


def cmd_derivative(args) -> int:
    handle = _resolve_handle(args)
    t = _load_point(args.point)
    h = _load_point(args.direction)
    bp = domain.boundary_point(handle.delta, t)
    bp.require_boundary()  # eta_numeric reads it again
    isometric = handle.realization.isometry_defect <= realization.ISOMETRY_TOL
    model = boundary.boundary_model(handle, bp) if bp.distinguished and isometric else None
    if model is not None and model.regular:  # the unitary W = phi(T), read from u_T
        w = model.W
    else:
        radial = handle.delta.is_homogeneous_degree_one()
        path = boundary.evaluate_sequence(
            handle, t, None if radial else h, max(args.steps, derivative.W_MIN_STEPS),
            domain.SEQUENCE_FIRST_STEP,
        )
        w = boundary.extract_W(path).W
    result = derivative.eta_numeric(handle, t, w, h, steps=args.steps)
    out = {
        "eta": numerics.matrix_to_json(result.eta),
        "increments": list(result.convergence_increments),
        "beta": result.beta,
        "first_step": result.first_step,
        "steps_used": result.steps_used,
        "partial": result.partial,
        "converged": result.converged,
        "W": numerics.matrix_to_json(w),
    }
    if args.closed_form is not None:
        oracle = fixtures.get_closed_form(args.closed_form)(h)
        err = numerics.operator_norm(result.eta - oracle)
        out["closed_form"] = args.closed_form
        out["closed_form_relative_error"] = err / max(1.0, numerics.operator_norm(oracle))
    emit(out, args.output)
    return 0


def cmd_fixtures(args) -> int:
    emit({"fixtures": fixtures.list_fixtures()}, args.output)
    return 0


_SCHEMAS = {
    "matrix": {
        "description": "complex matrix, entries row-major",
        "example": {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    },
    "polynomial": {
        "description": "free polynomial; may also be given as grammar text "
        "(variables x0..x{d-1}, complex literals like 2, 0.5i, 1+2i, "
        "operators + - * and ^k on variables or groups)",
        "example": {"d": 2, "terms": [{"coeff": [1.0, 0.0], "word": [0, 1]}]},
    },
    "delta": {
        "description": "grid of polynomials defining the domain; non-square "
        "grids are padded with zero polynomials; entries may be text",
        "example": {"d": 2, "entries": [["x0", "0"], ["0", "x1"]]},
    },
    "point": {
        "description": "matrix tuple; 'scalars' is shorthand for 1x1 components",
        "example": {"scalars": [[0.5, 0.0], [0.3, 0.0]]},
    },
    "realization": {
        "description": "isometric colligation blocks A (1x1), B (1xmJ), C (mJx1), D (mJxmJ)",
        "example": {"dim_E": 1, "J": 2, "A": "matrix", "B": "matrix", "C": "matrix", "D": "matrix"},
    },
}


def cmd_schema(args) -> int:
    emit(_SCHEMAS, args.output)
    return 0


# --- argument parsing ----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncjulia",
        description="evaluate functions of non-commuting matrix variables and "
        "verify their boundary behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate phi, u and the model identity at a point")
    p_eval.add_argument("--point", required=True, help="point file (JSON)")
    _add_options(p_eval, "--fixture", "--delta", "--realization", "--isometry-tol")
    p_eval.set_defaults(func=cmd_eval)

    p_bp = sub.add_parser("bpoint", help="boundary-point diagnostic report")
    p_bp.add_argument("--point", required=True, help="boundary point file (JSON)")
    p_bp.add_argument("--ray", help="direction file for a ray approach (default: radial)")
    _add_options(
        p_bp, "--fixture", "--delta", "--realization", "--seed", "--samples", "--steps",
        "--isometry-tol",
    )
    p_bp.set_defaults(func=cmd_bpoint)

    p_fuzz = sub.add_parser("fuzz", help="random colligation sweeps of the identities")
    p_fuzz.add_argument(
        "--dim-E", type=_at_least(1, fixtures.MAX_FAMILY_SIZE), default=1, dest="dim_E"
    )
    p_fuzz.add_argument("--delta", default="polydisk:2")
    p_fuzz.add_argument(
        "--no-isometry", action="store_true", dest="no_isometry",
        help="perturb colligations (negative control; violations expected)",
    )
    _add_options(p_fuzz, "--seed", "--samples")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_der = sub.add_parser("derivative", help="one-sided directional derivative at a boundary point")
    p_der.add_argument("--point", required=True)
    p_der.add_argument("--direction", required=True, help="direction tuple file (JSON)")
    p_der.add_argument(
        "--closed-form", dest="closed_form",
        help="compare against a named closed form (e.g. example-h3-eta)",
    )
    _add_options(
        p_der, "--fixture", "--delta", "--realization", "--steps", "--isometry-tol"
    )
    p_der.set_defaults(func=cmd_derivative)

    p_fix = sub.add_parser("fixtures", help="list addressable fixture names")
    _add_options(p_fix)
    p_fix.set_defaults(func=cmd_fixtures)

    p_schema = sub.add_parser("schema", help="print the JSON file formats")
    _add_options(p_schema)
    p_schema.set_defaults(func=cmd_schema)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
