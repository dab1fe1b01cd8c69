"""Command-line interface.

Subcommands: spectral, cbounds, witness-make, witness-verify, eval,
extend, enumerate. Every command prints a deterministic JSON report to
stdout (canonical formatting, no timing fields, so identical inputs and
seeds give byte-identical output) and a one-line human summary with the
wall time to stderr.

The search flags (--restarts, --seed of cbounds, witness-make,
witness-verify and extend) and -o are checked before any input file is
read; the seed comes from --seed, then WITNESS_FORGE_SEED, then 0.

extend decides at the base's size through `verify_witness`: it searches
the extension's blocks, sigma, sigma_S or a tail factor, never sigma'
itself, and reads the value of their lifted winner back from sigma'.

Exit codes: 0 success (and, for witness-verify, the operator really is
a witness); 1 parse or usage problems; 2 domain violations, including a
verified non-witness, which extend, like witness-make --check strict,
never writes (witness-make --check none is the one way to write an
unverified operator); 3 numerical non-convergence.
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
    purify_extend_n,
    pure_tails_extend,
)
from .fileio import (
    dumps_canonical,
    kind_of,
    parse_matrix_file,
    require_writable,
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
    Witness,
    WitnessForm,
    _require_witness,
    _search_params,
    evaluate,
    make_witness,
    max_product_expectation,
    min_product_expectation,
    verify_witness,
)

TOLERANCES = {
    "hermiticity": HERMITICITY_TOL,
    "rank": RANK_TOL,
    # the leader's stop, times `witness._stop_scale`: tr(sigma) on a state
    "seesaw": f"{SEESAW_TOL!r} * tr(sigma)",
    "tie": TIE_TOL,
    # the open end: the least margin -lambda_min(W) accepted, `witness._witness_report`
    "witness_neg": f"{TOL_NEG!r} * tr(sigma)",
    # the closed end: the least min product expectation accepted, `witness._closed_pad`
    "witness_pos": "-(rounding bound of s*(c - <mu|sigma|mu>)), about -2*dim*2**-53*tr(sigma)",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ParseError(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="witness-forge", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    search = _Parser(add_help=False)  # the see-saw's flags, on every command that searches
    search.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    search.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("spectral", help="eigenvalues of a density or Hermitian file")
    sp.add_argument("input")

    cb = sub.add_parser("cbounds", parents=[search],
                        help="product-state c bounds of a density file")
    cb.add_argument("input")
    cb.add_argument("--mode", required=True, choices=("min", "max"))
    cb.add_argument("--oracle", action="store_true")
    cb.add_argument("--resolution", type=int, default=None)  # 256 with --oracle

    wm = sub.add_parser("witness-make", parents=[search],
                        help="build a witness from a density file")
    wm.add_argument("sigma")
    wm.add_argument("--form", required=True, choices=("c_minus_sigma", "sigma_minus_c"))
    wm.add_argument("--c", required=True, type=float)
    wm.add_argument("--check", choices=("strict", "none"), default="strict")
    wm.add_argument("-o", "--output", required=True)

    wv = sub.add_parser("witness-verify", parents=[search],
                        help="see-saw verification of a witness file")
    wv.add_argument("input")

    ev = sub.add_parser("eval", help="expectation of a witness on a state")
    ev.add_argument("witness")
    ev.add_argument("state")

    ex = sub.add_parser("extend", parents=[search], help="extend a witness to more parties")
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
            raise ParseError(f"WITNESS_FORGE_SEED must be an integer, got {raw!r}") from None
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
    return results, summary, 0


def _cmd_cbounds(args):
    if args.resolution is not None and not args.oracle:
        raise ParseError("flag --resolution not valid without --oracle")
    obj = _require_kind(parse_matrix_file(args.input), ("density",), "cbounds input")
    oracle_value = None
    if args.oracle:
        oracle_mode = "max" if args.mode == "min" else "min"
        resolution = 256 if args.resolution is None else args.resolution
        try:
            oracle_value = grid_product_extremum(obj.mat, oracle_mode, resolution)
        except UnsupportedDims as exc:
            print(f"cbounds: oracle skipped: {exc}", file=sys.stderr)
    opt = max_product_expectation if args.mode == "min" else min_product_expectation
    res = opt(obj.mat, restarts=args.restarts, seed=args.seed)
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
    return results, summary, 0


def _cmd_witness_make(args):
    sigma = _require_kind(parse_matrix_file(args.sigma), ("density",), "witness-make input")
    if args.check == "none":
        w = Witness(WitnessForm(args.form), args.c, sigma)
    else:
        w = make_witness(WitnessForm(args.form), sigma, args.c, args.restarts, args.seed)
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
    return results, summary, 0


def _verdict(rep) -> dict:
    """The verdict's report keys, as witness-verify and extend print them."""
    names = ("is_witness", "min_product_expectation", "witnessing_margin")
    return {k: getattr(rep, k) for k in names}


def _cmd_witness_verify(args):
    w = _require_kind(parse_matrix_file(args.input), ("witness",), "witness-verify input")
    rep = verify_witness(w, restarts=args.restarts, seed=args.seed)
    results = {"certificate_state": [f.vec for f in rep.certificate_state.factors], **_verdict(rep)}
    summary = (
        f"witness-verify: is_witness={rep.is_witness}, "
        f"min product expectation {rep.min_product_expectation:.6g}, "
        f"margin {rep.witnessing_margin:.6g}"
    )
    return results, summary, 0 if rep.is_witness else 2


def _cmd_eval(args):
    w = _require_kind(parse_matrix_file(args.witness), ("witness",), "eval witness")
    state = _require_kind(parse_matrix_file(args.state), ("density", "pure"), "eval state")
    if isinstance(state, PureState):
        state = projector(state)
    value = evaluate(w, state)
    results = {"value": value}
    return results, f"eval: tr(W rho) = {value:.12g}", 0


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
    return PurificationSelection(tuple(pairs), ancilla_dim)


# Per method: the flags it accepts, the flags it requires, the kind of its
# --tails files, and the extension, a witness on sigma' carrying its
# base-size blocks (`Witness.blocks`). The functions look the extensions up
# in this module when they are called.
_EXTEND_METHODS = {
    "purify": ({"tails"}, (), "pure", lambda w, args, tails: purify_extend_n(w, tails)),
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
    allowed, required, tail_kind, extension = _EXTEND_METHODS[args.method]
    names = ("selection", "ancilla_dim", "tails", "tail_dims", "c_prime")
    given = {name for name in names if getattr(args, name) is not None}
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
    w = _require_kind(parse_matrix_file(args.input), ("witness",), "extend input")
    tails = [
        _require_kind(parse_matrix_file(t), (tail_kind,), f"tail {t}")
        for t in args.tails or ()
    ]
    w2 = extension(w, args, tails)
    rep = verify_witness(w2, restarts=args.restarts, seed=args.seed)
    _require_witness(w2, rep)
    write_matrix_file(w2, args.output)
    results = {
        "c": w2.c,
        "dims": list(w2.dims),
        "method": args.method,
        "output": args.output,
        "verify": _verdict(rep),
    }
    summary = (
        f"extend --method {args.method}: wrote {args.output} "
        f"(dims {list(w2.dims)}, c = {w2.c:.12g}, is_witness={rep.is_witness})"
    )
    return results, summary, 0


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
    return results, summary, 0


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
        # the checks that need no file, before any is read
        if "output" in args:
            require_writable(args.output)
        if "restarts" in args:
            args.restarts, args.seed = _search_params(args.restarts, _resolve_seed(args.seed))
        results, summary, code = _DISPATCH[args.cmd](args)
        report = dumps_canonical({
            "command": list(argv),
            "restarts": getattr(args, "restarts", None),
            "results": results,
            "seed": getattr(args, "seed", None),
            "tolerances": TOLERANCES,
        })
    except WitnessForgeError as exc:
        error = {"message": str(exc), "type": type(exc).__name__}
        report = dumps_canonical({"command": list(argv), "error": error})
        summary, code = f"error [{type(exc).__name__}]: {exc}", exit_code_for(exc)
    print(report)
    dt = (time.perf_counter() - t0) * 1000.0
    print(f"{summary} ({dt:.1f} ms)", file=sys.stderr)
    return code
