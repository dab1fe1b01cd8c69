"""Command-line interface.

Subcommands: spectral, cbounds, witness-make, witness-verify, eval,
extend, enumerate. Every command prints a deterministic JSON report to
stdout (canonical formatting, no timing fields, so identical inputs and
seeds give byte-identical output) and a one-line human summary with the
wall time to stderr.

Exit codes: 0 success (and, for witness-verify, the operator really is
a witness); 1 parse or usage problems; 2 domain violations, including a
verified non-witness; 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .errors import ParseError, UnsupportedDims, WitnessForgeError, exit_code_for
from .extend import (
    count_partial_purifications,
    enumerate_partial_purifications,
    identity_extend,
    mixed_tensor_extend,
    partial_purify_extend,
    purify_extend,
    purify_extend_n,
    pure_tails_extend,
)
from .fileio import (
    dumps_canonical,
    kind_of,
    parse_matrix_file,
    write_matrix_file,
)
from .linalg import HERMITICITY_TOL, RANK_TOL, TIE_TOL, hermitian_eig
from .oracle import grid_product_extremum
from .qstate import (
    DensityMatrix,
    PureState,
    PurificationSelection,
    projector,
    spectral,
)
from .witness import (
    DEFAULT_RESTARTS,
    SEESAW_TOL,
    TOL_NEG,
    TOL_POS,
    WitnessForm,
    evaluate,
    make_witness,
    max_product_expectation,
    min_product_expectation,
    verify_witness,
)

TOLERANCES = {
    "hermiticity": HERMITICITY_TOL,
    "interval_pad": TOL_POS,  # the closed side's pad is the verdict's TOL_POS
    "rank": RANK_TOL,
    "seesaw": SEESAW_TOL,
    "tie": TIE_TOL,
    "witness_neg": TOL_NEG,
    "witness_pos": TOL_POS,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ParseError(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="witness-forge", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    sp = sub.add_parser("spectral", help="eigenvalues of a density or Hermitian file")
    sp.add_argument("input")

    cb = sub.add_parser("cbounds", help="product-state c bounds of a density file")
    cb.add_argument("input")
    cb.add_argument("--mode", required=True, choices=("min", "max"))
    cb.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    cb.add_argument("--seed", type=int, default=None)
    cb.add_argument("--oracle", action="store_true")
    cb.add_argument("--resolution", type=int, default=256)

    wm = sub.add_parser("witness-make", help="build a witness from a density file")
    wm.add_argument("sigma")
    wm.add_argument("--form", required=True, choices=("c_minus_sigma", "sigma_minus_c"))
    wm.add_argument("--c", required=True, type=float)
    wm.add_argument("--check", choices=("strict", "none"), default="strict")
    wm.add_argument("-o", "--output", required=True)
    wm.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    wm.add_argument("--seed", type=int, default=None)

    wv = sub.add_parser("witness-verify", help="see-saw verification of a witness file")
    wv.add_argument("input")
    wv.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    wv.add_argument("--seed", type=int, default=None)

    ev = sub.add_parser("eval", help="expectation of a witness on a state")
    ev.add_argument("witness")
    ev.add_argument("state")

    ex = sub.add_parser("extend", help="extend a witness to more parties")
    ex.add_argument("input")
    ex.add_argument(
        "--method",
        required=True,
        choices=("purify", "partial", "mixed", "identity", "pure-tails"),
    )
    ex.add_argument("--selection")
    ex.add_argument("--ancilla-dim", type=int)
    ex.add_argument("--tails", nargs="+")
    ex.add_argument("--tail-dims", nargs="+", type=int)
    ex.add_argument("--c-prime", type=float)
    ex.add_argument("-o", "--output", required=True)
    ex.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    ex.add_argument("--seed", type=int, default=None)

    en = sub.add_parser("enumerate", help="partial-purification selections of a state")
    en.add_argument("input")
    en.add_argument("--ancilla-dim", type=int, required=True)
    return p


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("WITNESS_FORGE_SEED")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ParseError(
                f"WITNESS_FORGE_SEED must be an integer, got {raw!r}"
            ) from None
    return 0


def _require_kind(obj, kinds: tuple[str, ...], what: str):
    kind = kind_of(obj)
    if kind not in kinds:
        raise ParseError(f"{what} must be a {', '.join(kinds)} file, got kind={kind}")
    return obj


def _cmd_spectral(args):
    obj = _require_kind(parse_matrix_file(args.input), ("density", "hermitian"), "spectral input")
    sd = spectral(obj) if isinstance(obj, DensityMatrix) else hermitian_eig(obj)
    results = {
        "eigenvalues": list(sd.eigenvalues),
        "lambda_max": sd.eigenvalues[-1],
        "lambda_min": sd.eigenvalues[0],
        "rank": sd.rank(),
    }
    summary = (
        f"spectral: rank {results['rank']}, "
        f"eigenvalues in [{results['lambda_min']:.6g}, {results['lambda_max']:.6g}]"
    )
    return results, None, None, summary, 0


def _cmd_cbounds(args):
    obj = _require_kind(parse_matrix_file(args.input), ("density",), "cbounds input")
    seed = _resolve_seed(args.seed)
    oracle_value = None
    if args.oracle:
        oracle_mode = "max" if args.mode == "min" else "min"
        try:
            oracle_value = grid_product_extremum(obj.mat, oracle_mode, args.resolution)
        except UnsupportedDims:
            print(
                f"cbounds: oracle skipped, dims {list(obj.dims)} unsupported",
                file=sys.stderr,
            )
    opt = max_product_expectation if args.mode == "min" else min_product_expectation
    res = opt(obj.mat, restarts=args.restarts, seed=seed)
    results = {
        "converged": res.converged,
        "extremizer": [f.vec for f in res.extremizer.factors],
        "lambda_max": obj.lambda_max,
        "lambda_min": obj.lambda_min,
        "mode": args.mode,
        "oracle": oracle_value,
        "restarts_used": res.restarts_used,
        "value": res.value,
    }
    summary = f"cbounds --mode {args.mode}: c = {res.value:.12g} (converged={res.converged})"
    if oracle_value is not None:
        summary += f", oracle {oracle_value:.12g}"
    return results, seed, args.restarts, summary, 0


def _cmd_witness_make(args):
    sigma = _require_kind(parse_matrix_file(args.sigma), ("density",), "witness-make input")
    seed = _resolve_seed(args.seed)
    w = make_witness(
        WitnessForm(args.form), sigma, args.c,
        check=args.check, restarts=args.restarts, seed=seed,
    )
    write_matrix_file(w, args.output)
    results = {
        "c": w.c,
        "check": args.check,
        "dims": list(w.dims),
        "form": w.form.value,
        "lambda_max": sigma.lambda_max,
        "lambda_min": sigma.lambda_min,
        "output": args.output,
    }
    summary = f"witness-make: wrote {args.output} (form {w.form.value}, c = {w.c:.12g})"
    return results, seed, args.restarts, summary, 0


def _cmd_witness_verify(args):
    w = _require_kind(parse_matrix_file(args.input), ("witness",), "witness-verify input")
    seed = _resolve_seed(args.seed)
    rep = verify_witness(w, restarts=args.restarts, seed=seed)
    results = {
        "certificate_state": [f.vec for f in rep.certificate_state.factors],
        "is_witness": rep.is_witness,
        "min_product_expectation": rep.min_product_expectation,
        "witnessing_margin": rep.witnessing_margin,
    }
    summary = (
        f"witness-verify: is_witness={rep.is_witness}, "
        f"min product expectation {rep.min_product_expectation:.6g}, "
        f"margin {rep.witnessing_margin:.6g}"
    )
    return results, seed, args.restarts, summary, 0 if rep.is_witness else 2


def _cmd_eval(args):
    w = _require_kind(parse_matrix_file(args.witness), ("witness",), "eval witness")
    state = _require_kind(parse_matrix_file(args.state), ("density", "pure"), "eval state")
    if isinstance(state, PureState):
        state = projector(state)
    value = evaluate(w, state)
    results = {"value": value}
    return results, None, None, f"eval: tr(W rho) = {value:.12g}", 0


def _parse_selection(text: str, ancilla_dim: int) -> PurificationSelection:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise ParseError(f"bad selection chunk {chunk!r}, want 'eigIndex:ancillaSlot'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"selection indices must be integers, got {chunk!r}") from None
    if not pairs:
        raise ParseError("empty selection")
    return PurificationSelection(tuple(pairs), ancilla_dim)


# Per method: the flags it accepts, the flags it requires, the kind of its
# --tails files, and the extension. The lambdas look the extension
# functions up in this module when they are called.
_EXTEND_METHODS = {
    "purify": ({"tails"}, (), "pure", lambda w, args, tails: (
        purify_extend_n(w, tails) if tails else purify_extend(w))),
    "partial": ({"selection", "ancilla_dim", "c_prime"}, ("selection", "ancilla_dim"), None,
                lambda w, args, tails: partial_purify_extend(
                    w, _parse_selection(args.selection, args.ancilla_dim), c_prime=args.c_prime)),
    "mixed": ({"tails"}, ("tails",), "density",
              lambda w, args, tails: mixed_tensor_extend(w, tails)),
    "identity": ({"tail_dims"}, ("tail_dims",), None,
                 lambda w, args, tails: identity_extend(w, args.tail_dims)),
    "pure-tails": ({"tails"}, ("tails",), "pure",
                   lambda w, args, tails: pure_tails_extend(w, tails)),
}


def _cmd_extend(args):
    w = _require_kind(parse_matrix_file(args.input), ("witness",), "extend input")
    seed = _resolve_seed(args.seed)
    allowed, required, tail_kind, extension = _EXTEND_METHODS[args.method]
    given = {
        name
        for name in ("selection", "ancilla_dim", "tails", "tail_dims", "c_prime")
        if getattr(args, name) is not None
    }
    stray = given - allowed
    if stray:
        raise ParseError(
            f"flags {sorted('--' + s.replace('_', '-') for s in stray)} "
            f"not valid for --method {args.method}"
        )
    if any(getattr(args, name) is None for name in required):
        raise ParseError(
            f"--method {args.method} requires "
            + " and ".join("--" + name.replace("_", "-") for name in required)
        )
    tails = [
        _require_kind(parse_matrix_file(t), (tail_kind,), f"tail {t}")
        for t in args.tails or ()
    ]
    w2 = extension(w, args, tails)

    rep = verify_witness(w2, restarts=args.restarts, seed=seed)
    write_matrix_file(w2, args.output)
    results = {
        "c": w2.c,
        "dims": list(w2.dims),
        "method": args.method,
        "output": args.output,
        "verify": {
            "is_witness": rep.is_witness,
            "min_product_expectation": rep.min_product_expectation,
            "witnessing_margin": rep.witnessing_margin,
        },
    }
    summary = (
        f"extend --method {args.method}: wrote {args.output} "
        f"(dims {list(w2.dims)}, c = {w2.c:.12g}, is_witness={rep.is_witness})"
    )
    return results, seed, args.restarts, summary, 0


def _cmd_enumerate(args):
    d = _require_kind(parse_matrix_file(args.input), ("density",), "enumerate input")
    sd = spectral(d)
    sels = enumerate_partial_purifications(sd, args.ancilla_dim)
    rank = sd.rank()
    formula = count_partial_purifications(rank, args.ancilla_dim)
    vals = sd.eigenvalues
    nondegenerate = len(vals) < 2 or (vals[-1] - vals[-2]) > TIE_TOL
    if nondegenerate and len(sels) != formula:
        raise WitnessForgeError(
            f"enumeration produced {len(sels)} selections but the closed "
            f"form counts {formula}"
        )
    results = {
        "ancilla_dim": args.ancilla_dim,
        "count_enumerated": len(sels),
        "count_formula": formula,
        "nondegenerate_top": nondegenerate,
        "rank": rank,
        "selections": [[list(p) for p in s.pairs] for s in sels],
    }
    summary = f"enumerate: {len(sels)} selections (formula {formula}, rank {rank})"
    return results, None, None, summary, 0


_DISPATCH = {
    "spectral": _cmd_spectral,
    "cbounds": _cmd_cbounds,
    "witness-make": _cmd_witness_make,
    "witness-verify": _cmd_witness_verify,
    "eval": _cmd_eval,
    "extend": _cmd_extend,
    "enumerate": _cmd_enumerate,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    t0 = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        results, seed, restarts, summary, code = _DISPATCH[args.cmd](args)
    except WitnessForgeError as exc:
        report = {
            "command": list(argv),
            "error": {"message": str(exc), "type": type(exc).__name__},
        }
        print(dumps_canonical(report))
        dt = (time.perf_counter() - t0) * 1000.0
        print(f"error [{type(exc).__name__}]: {exc} ({dt:.1f} ms)", file=sys.stderr)
        return exit_code_for(exc)
    report = {
        "command": list(argv),
        "restarts": restarts,
        "results": results,
        "seed": seed,
        "tolerances": TOLERANCES,
    }
    print(dumps_canonical(report))
    dt = (time.perf_counter() - t0) * 1000.0
    print(f"{summary} ({dt:.1f} ms)", file=sys.stderr)
    return code
