"""Command-line surface.

Exit codes: 0 success / claim holds, 1 claim fails, 2 input error,
3 numerical failure.  Every command writes a JSON run report (and its
artifacts) into the output directory; numeric results in reports are paired
with the tolerance they were certified at.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .aqset import aq_extremize, build_moment_structure, constraint_residual, strictly_feasible_point
from .errors import AqbellError, SolverFailureError
from .nbf import (
    NbfFamily,
    certificate_residual,
    certificate_to_json,
    compose,
    project_to_nbf,
    reference_composed_functional,
    reference_functionals,
    verify_nbf,
)
from .oracles import (
    deterministic_range,
    normalized_chsh,
    quantum_value,
    three_setting_pair_model,
    trace_moment_matrix,
    tsirelson_model,
)
from .scenario import (
    BellFunctional,
    behavior_to_json,
    functional_from_json,
    functional_to_json,
    load_json,
    make_scenario,
    save_json,
)
from .sdp import GAP_TOL
from .seesaw import SeesawConfig, run as seesaw_run, trace_to_json

# the interpreter's own SHA-256, as random.py takes its sha512: hashlib would
# load OpenSSL's libcrypto (3.5 MB resident) for the same digests
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

REPRODUCE_BAND = (-0.0038, -0.0028)
COEFF_TOL = 5e-4  # four-decimal reference coefficients
PERTURB_CLAIM_EPSILON = 1e-3  # above this the probe is exploratory only
PERTURB_FLOOR = -0.002


def _digest(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _write_report(args, command: str, inputs, config, results, artifacts=()) -> None:
    """Create ``--out``, write the (file name, JSON) ``artifacts`` in order,
    then the run report; the one writer into the output directory."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, blob in artifacts:
        save_json(outdir / name, blob)
    report = {
        "command": command,
        "inputs_digest": _digest(inputs),
        "config_digest": _digest(config),
        "results": results,
        "wall_time_s": time.monotonic() - args.started,
        "tool_version": __version__,
    }
    save_json(outdir / f"{command.replace(' ', '_')}_report.json", report)


def _result(value: float, tolerance: float) -> dict:
    return {"value": float(value), "tolerance": float(tolerance)}


def _certificates(named) -> tuple[list, dict]:
    """The (file name, JSON) artifacts of (file name, certificate) pairs,
    and each certificate's ``nbf.certificate_residual`` by file name."""
    artifacts = [(name, certificate_to_json(cert)) for name, cert in named]
    return artifacts, {name: certificate_residual(cert) for name, cert in named}


def cmd_verify(args) -> int:
    raw = load_json(args.functional)
    functional = functional_from_json(raw)
    verdict = verify_nbf(functional, tol=args.tol)
    if verdict.is_nbf is None:
        _write_report(args, "verify", raw, {"tol": args.tol}, {"is_nbf": None, "failure": verdict.failure})
        print(f"numerical failure, verdict indeterminate: {verdict.failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    artifacts, residuals = _certificates((
        ("lower_certificate.json", verdict.lower_certificate),
        ("upper_certificate.json", verdict.upper_certificate),
    ))
    results = {
        "is_nbf": verdict.is_nbf,
        "aq_min": _result(verdict.aq_min, args.tol),
        "aq_max": _result(verdict.aq_max, args.tol),
        "certificates": list(residuals),
        "certificate_residuals": residuals,
    }
    _write_report(args, "verify", raw, {"tol": args.tol}, results, artifacts)
    print(f"is_nbf={verdict.is_nbf}  aq_min={verdict.aq_min:+.9f}  aq_max={verdict.aq_max:+.9f}")
    return EXIT_OK if verdict.is_nbf else EXIT_CLAIM_FAILS


def cmd_aq(args) -> int:
    raw = load_json(args.functional)
    functional = functional_from_json(raw)
    ext = aq_extremize(functional, args.sense, args.tol)
    artifacts, residuals = _certificates(((f"aq_{args.sense}_certificate.json", ext.certificate),))
    results = {
        "sense": args.sense,
        "value": _result(ext.value, ext.solution.residuals.gap),
        "solver_gap": ext.solution.residuals.gap,
        "iterations": ext.solution.iterations,
        "reduction": ext.reduction,
        "certificate_residuals": residuals,
    }
    _write_report(args, f"aq {args.sense}", raw, {"tol": args.tol}, results, (
        (f"aq_{args.sense}_behavior.json", behavior_to_json(ext.behavior)),
        *artifacts,
    ))
    print(f"aq_{args.sense} = {ext.value:+.9f}")
    return EXIT_OK


def cmd_compose(args) -> int:
    if args.u or args.v:
        if not args.u or not args.v:
            print("compose needs either no inputs (bundled trio) or both --u and --v", file=sys.stderr)
            return EXIT_INPUT_ERROR
        # the report digests what was read, as verify and aq do
        inputs = {"u": [load_json(path) for path in args.u], "v": load_json(args.v)}
        generators = [functional_from_json(raw) for raw in inputs["u"]]
        composed = compose(functional_from_json(inputs["v"]), NbfFamily(generators))
    else:
        composed = reference_composed_functional()
        inputs = {"bundled": True}
    _write_report(
        args, "compose", inputs, {}, {"composed": "composed.json"},
        (("composed.json", functional_to_json(composed)),),
    )
    print(f"composed functional written to {Path(args.out) / 'composed.json'}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    first, second, outer = reference_functionals()
    verdicts = {
        name: verify_nbf(f, tol=COEFF_TOL, gap_tol=args.tol)
        for name, f in (("first", first), ("second", second), ("outer", outer))
    }
    for name, verdict in verdicts.items():
        if verdict.is_nbf is None:
            print(f"verification of {name} failed: {verdict.failure}", file=sys.stderr)
            return EXIT_NUMERICAL
        if not verdict.is_nbf:
            print(f"{name} functional is not normalized over the set", file=sys.stderr)
            return EXIT_CLAIM_FAILS
    composed = compose(outer, NbfFamily((first, second)))
    ext = aq_extremize(composed, "min", args.tol)
    artifacts, residuals = _certificates((("reproduce_certificate.json", ext.certificate),))
    lo, hi = REPRODUCE_BAND
    results = {
        "minimum": _result(ext.value, ext.solution.residuals.gap),
        "band": [lo, hi],
        "in_band": bool(lo <= ext.value <= hi),
        "solver_gap": ext.solution.residuals.gap,
        "iterations": ext.solution.iterations,
        "reduction": ext.reduction,
        "certificate_residuals": residuals,
        "verdicts": {
            name: {
                "is_nbf": verdict.is_nbf,
                "aq_min": _result(verdict.aq_min, COEFF_TOL),
                "aq_max": _result(verdict.aq_max, COEFF_TOL),
            }
            for name, verdict in verdicts.items()
        },
    }
    _write_report(args, "reproduce", {"bundled": True}, {"tol": args.tol}, results, (
        ("reproduce_behavior.json", behavior_to_json(ext.behavior)),
        *artifacts,
    ))
    print(f"min over the almost-quantum set: {ext.value:+.9f}  (band [{lo}, {hi}])")
    return EXIT_OK if ext.value <= hi else EXIT_CLAIM_FAILS


def cmd_perturb(args) -> int:
    if not 0.0 <= args.epsilon <= 0.01:
        print("epsilon must lie in [0, 0.01]", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.trials < 1:
        print("trials must be at least 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    first, second, outer = reference_functionals()
    epsilons = [0.0] if args.epsilon == 0.0 else [0.0, args.epsilon]
    rng = np.random.default_rng(args.seed)
    rows = []
    for eps in epsilons:
        trials = 1 if eps == 0.0 else args.trials
        for trial in range(trials):
            perturbed = []
            for f in (first, second, outer):
                noise = rng.uniform(-eps, eps, size=f.coeffs.shape) if eps > 0.0 else 0.0
                candidate = BellFunctional(f.scenario, f.coeffs + noise)
                perturbed.append(project_to_nbf(candidate) if eps > 0.0 else candidate)
            composed = compose(perturbed[2], NbfFamily(perturbed[:2]))
            value = aq_extremize(composed, "min").value
            rows.append({"epsilon": eps, "trial": trial, "minimum": value})
            print(f"epsilon={eps:.1e} trial={trial}: minimum {value:+.9f}")
    claim_checked = args.epsilon <= PERTURB_CLAIM_EPSILON and args.epsilon > 0.0
    holds = all(row["minimum"] <= PERTURB_FLOOR for row in rows if row["epsilon"] > 0.0)
    results = {
        "trajectory": rows,
        "floor": PERTURB_FLOOR,
        "claim_checked": claim_checked,
        "claim_holds": bool(holds) if claim_checked else None,
    }
    inputs = {"epsilon": args.epsilon, "seed": args.seed}
    _write_report(args, "perturb", inputs, {"trials": args.trials}, results)
    if claim_checked and not holds:
        return EXIT_CLAIM_FAILS
    return EXIT_OK


def cmd_seesaw(args) -> int:
    # no value is <= nan, and a NaN target would reach the report as a bare
    # NaN token that strict JSON parsers reject
    if not np.isfinite(args.target):
        print(f"--target must be finite, got {args.target}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cfg = SeesawConfig(
        restarts=args.restarts,
        max_sweeps=args.sweeps,
        seed=args.seed,
        init_v=args.init,
        target_value=args.target,
    )
    trace = seesaw_run(cfg)
    reached = trace.best_value <= cfg.target_value
    results = {
        "best_value": _result(trace.best_value, GAP_TOL),
        "best_restart": trace.best.index,
        "restarts_run": len(trace.outcomes),
        "failed_restarts": trace.failed_count,
        "target": cfg.target_value,
        "target_reached": bool(reached),
    }
    _write_report(
        args, "seesaw run", dataclasses.asdict(cfg), {}, results, (("seesaw_trace.json", trace_to_json(trace)),)
    )
    print(
        f"best value {trace.best_value:+.9f} from restart {trace.best.index} "
        f"({len(trace.outcomes)} run, {trace.failed_count} failed)"
        + ("" if reached else "  [target missed]")
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    first, second, outer = reference_functionals()
    chsh = normalized_chsh()
    suite = [
        ("first generator", first, three_setting_pair_model()),
        ("second generator", second, three_setting_pair_model()),
        ("outer functional", outer, tsirelson_model()),
        ("normalized CHSH", chsh, tsirelson_model()),
    ]
    rows = []
    print(f"{'functional':>18} {'det min':>10} {'det max':>10} {'aq min':>12} {'aq max':>12} {'quantum':>12}")
    for name, functional, model in suite:
        det_lo, det_hi = deterministic_range(functional)
        aq_lo = aq_extremize(functional, "min").value
        aq_hi = aq_extremize(functional, "max").value
        q = quantum_value(functional, model)
        rows.append(
            {"name": name, "det": [det_lo, det_hi], "aq": [aq_lo, aq_hi], "quantum": q}
        )
        print(f"{name:>18} {det_lo:>10.6f} {det_hi:>10.6f} {aq_lo:>12.8f} {aq_hi:>12.8f} {q:>12.8f}")
    residuals = {}
    for scn in (make_scenario(2, 2, 2), make_scenario(2, 3, 2), make_scenario(3, 3, 2)):
        structure = build_moment_structure(scn)
        gamma = trace_moment_matrix(structure)
        residuals[str(scn.settings)] = {
            "constraint_residual": constraint_residual(structure, gamma),
            "agreement": float(np.abs(gamma - strictly_feasible_point(structure)).max()),
            "min_eigenvalue": float(np.linalg.eigvalsh(gamma).min()),
        }
    print("interior-point residuals:", json.dumps(residuals, indent=1))
    _write_report(args, "oracle", {}, {}, {"table": rows, "interior": residuals})
    return EXIT_OK


def cmd_dump_reference(args) -> int:
    files = [f"reference_{name}.json" for name in ("first", "second", "outer", "composed")]
    bundled = (*reference_functionals(), reference_composed_functional())
    artifacts = [(name, functional_to_json(f)) for name, f in zip(files, bundled)]
    _write_report(args, "dump-reference", {}, {}, {"files": files}, artifacts)
    print("\n".join(str(Path(args.out) / f) for f in files))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aqbell", description=__doc__)
    parser.add_argument("--out", default="aqbell_out", help="output directory for reports and artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="test whether a functional is normalized over the set")
    p.add_argument("functional", help="functional JSON file")
    p.add_argument("--tol", type=float, default=inspect.signature(verify_nbf).parameters["tol"].default)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("aq", help="extremize a functional over the almost-quantum set")
    p.add_argument("sense", choices=("min", "max"))
    p.add_argument("functional")
    p.add_argument("--tol", type=float, default=GAP_TOL, help="solver gap tolerance")
    p.set_defaults(func=cmd_aq)

    p = sub.add_parser("compose", help="compose an outer functional with a two-outcome family")
    p.add_argument("--u", action="append", help="family generator JSON (repeatable)")
    p.add_argument("--v", help="outer functional JSON")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("reproduce", help="recompute the bundled composed functional's negative floor")
    p.add_argument("--tol", type=float, default=GAP_TOL, help="solver gap tolerance")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("perturb", help="noise-robustness probe of the composed floor")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=2)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("seesaw", help="alternating search for violating blocks")
    seesaw_sub = p.add_subparsers(dest="seesaw_command", required=True)
    q = seesaw_sub.add_parser("run")
    defaults = SeesawConfig()
    q.add_argument("--seed", type=int, default=defaults.seed)
    q.add_argument("--restarts", type=int, default=defaults.restarts)
    q.add_argument("--sweeps", type=int, default=defaults.max_sweeps)
    q.add_argument("--init", choices=("reference", "random"), default=defaults.init_v)
    q.add_argument("--target", type=float, default=defaults.target_value)
    q.set_defaults(func=cmd_seesaw)

    p = sub.add_parser("oracle", help="print the independent cross-check table")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-reference", help="write the bundled functionals as JSON")
    p.set_defaults(func=cmd_dump_reference)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.monotonic()
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (SolverFailureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # json.JSONDecodeError is a ValueError and NoWorkError an AqbellError;
    # a JSON value of the wrong type ("coeff": null, "entries": 5, a
    # top-level list) surfaces as a TypeError, an index out of range as an
    # IndexError; OSError covers a missing input and an unusable --out
    except (OSError, LookupError, TypeError, ValueError, AqbellError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
