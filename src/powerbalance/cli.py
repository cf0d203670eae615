"""Command-line front end.

Subcommands:

  decide   decide one exponent, emit a JSON certificate or a summary line
  sweep    decide a range of exponents, stream CSV / JSON-lines / certificates
  verify   check the balanced equation at one concrete (n, k, ell)
  lemmas   run the supporting lemma checkers over configurable ranges
  oracle   brute-force search of an (n, k) box

Exit codes: 0 success (or verdict as expected), 1 domain-level FALSE or
counterexample, 2 usage error (an --out path that cannot be opened too),
141 (128 + SIGPIPE) when the reader closes stdout early, as `head` does.
All emitted numbers are exact: integers or "p/q" strings, never floats.
Configuration is flags only -- no environment variables -- so invocations
reproduce exactly.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import chain

from . import __version__
from .arith import nu, nu2_binomial
from .bounds import check_appendix_identity, check_sandwich, compute_bounds, integers_in_window, k_max
from .decider import FAMILY, FAST, PARANOID, certificate_json, decide, sweep
from .equation import verify_instance
from .filters import PASS, check_modular_collapse, filter_radical
from .oracle import oracle_search
from .powersum import check_carlitz_von_staudt, check_macmillan_sondow

SWEEP_CSV_COLUMNS = ["ell", "verdict", "num_candidate_k", "num_integer_candidates", "elapsed_ms"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerbalance",
        description="Exact decision procedure for balanced sums of consecutive like powers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one exponent and emit a certificate")
    p.add_argument("--ell", type=int, required=True, help="exponent, >= 1")
    p.add_argument("--mode", choices=[FAST, PARANOID], default=FAST)
    p.add_argument("--summary", action="store_true", help="one-line verdict instead of the JSON certificate")

    p = sub.add_parser(
        "sweep",
        help="decide a range of exponents",
        epilog="CSV columns: " + ",".join(SWEEP_CSV_COLUMNS)
        + ". jsonl emits the same fields as objects; certs emits one full JSON certificate per line.",
    )
    p.add_argument("--ell-min", type=int, required=True)
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--mode", choices=[FAST, PARANOID], default=FAST)
    p.add_argument("--format", choices=["csv", "jsonl", "certs"], default="csv")
    p.add_argument("--out", default="-", help="output path, '-' for stdout (default)")

    p = sub.add_parser("verify", help="check the equation at one (n, k, ell)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("lemmas", help="run lemma checkers over ranges")
    p.add_argument("--lemma", choices=[*_LEMMA_RUNNERS, "all"], default="all")
    p.add_argument("--k-max", type=int, default=100)
    p.add_argument("--m-max", type=int, default=39)
    p.add_argument("--ell-max", type=int, default=30)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=2013, help="seed for sampled checks")

    p = sub.add_parser("oracle", help="brute-force search of an (n, k) box")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--json", dest="as_json", action="store_true", help="emit a JSON list")

    # errors found after parsing are reported with the subcommand's own usage line
    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def _cmd_decide(args, out) -> int:
    cert = decide(args.ell, mode=args.mode)
    if args.summary:
        if cert.verdict == FAMILY:
            print(f"FAMILY w={cert.family['w']} (ell={cert.ell})", file=out)
        else:
            _, verdict, n_k, n_w, _ = _summary_row(cert)
            print(
                f"{verdict} (ell={cert.ell}, candidate k values: {n_k}, integer candidates: {n_w})",
                file=out,
            )
    else:
        print(certificate_json(cert), file=out)
    return 0


def _cmd_sweep(stream, args, out) -> int:
    if args.format == "csv":
        print(",".join(SWEEP_CSV_COLUMNS), file=out)
    for cert in stream:
        if args.format == "certs":
            line = certificate_json(cert)
        elif args.format == "jsonl":
            row = dict(zip(SWEEP_CSV_COLUMNS, _summary_row(cert)))
            line = json.dumps(row, sort_keys=True, separators=(",", ":"))
        else:  # every field is an integer or a verdict name, so none needs CSV quoting
            line = ",".join(map(str, _summary_row(cert)))
        print(line, file=out)
        out.flush()
    return 0


def _summary_row(cert):
    # num_candidate_k counts every window under the sharp cap, the empty ones
    # past k* too, which the certificate text lists but cert.candidates does not
    return [
        cert.ell,
        cert.verdict,
        k_max(cert.ell),
        sum(len(r.integer_candidates) for r in cert.candidates),
        cert.elapsed_ms,
    ]


def _cmd_verify(args, out) -> int:
    if verify_instance(args.n, args.k, args.ell):
        print("TRUE", file=out)
        return 0
    print("FALSE", file=out)
    return 1


def _cmd_oracle(args, out) -> int:
    found = oracle_search(args.ell, args.n_max, args.k_max)
    if args.as_json:
        print(json.dumps([[n, k] for n, k in found]), file=out)
    else:
        for n, k in found:
            print(f"n={n} k={k}", file=out)
        print(f"{len(found)} solution(s) with ell={args.ell}, n <= {args.n_max}, k <= {args.k_max}", file=out)
    return 0


def _lemma_carlitz(args):
    for k in range(1, args.k_max + 1):
        for m in range(1, args.m_max + 1, 2):
            if not check_carlitz_von_staudt(k, m):
                return f"k={k}, m={m}: k(k+1)/2 does not divide S_m(k)"
    return None


def _lemma_macmillan(args):
    for k in range(1, args.k_max + 1):
        for m in range(3, args.m_max + 1, 2):
            if not check_macmillan_sondow(k, m):
                return f"k={k}, m={m}: nu_2(2 S_m(k)) != 2 nu_2(k(k+1)) - 1"
    return None


def _lemma_sandwich(args):
    for ell in range(3, args.ell_max + 1):
        for k in range(1, args.k_max + 1):
            if not check_sandwich(ell, k):
                return f"ell={ell}, k={k}: root escapes the exact window"
    return None


def _lemma_appendix(args):
    rng = random.Random(args.seed)
    points = [(Fraction(3), Fraction(2)), (Fraction(8), Fraction(2))]
    for _ in range(args.samples):
        den = rng.randint(1, 1000)
        ell = Fraction(rng.randint(2 * den + 1, 100 * den), den)
        den = rng.randint(1, 1000)
        K = Fraction(rng.randint(2 * den, 10**4 * den), den)
        points.append((ell, K))
    for ell, K in points:
        if not check_appendix_identity(ell, K):
            return f"ell={ell}, K={K}: inequality chain lines disagree"
    return None


def _lemma_collapse(args):
    # the Kummer facts the replay rests on: nu_2(C(ell, m)) is e = nu_2(ell)
    # at m = 1 and at top_m, and at least e at every odd m between
    for ell in range(5, args.ell_max + 1):
        e, top_m = nu(ell), ell - 1 + ell % 2
        for m in range(1, top_m + 1, 2):
            v = nu2_binomial(ell, m)
            if v < e or (v != e and m in (1, top_m)):
                return f"ell={ell}, m={m}: nu_2(C(ell, m)) = {v} against e = {e}"
    fixed = [(8, 1, [16]), (5, 1, [10]), (9, 2, [54])]
    windows = ((ell, k, integers_in_window(compute_bounds(ell, k)))
               for ell in range(5, args.ell_max + 1) for k in range(1, args.k_max + 1))
    for ell, k, ws in chain(fixed, windows):
        # a radical PASS makes w even, since 2 | k(k+1), so g >= 1
        for w in ws:
            if filter_radical(k, w).failed:
                continue
            report = check_modular_collapse(ell, k, nu(w))
            if report.outcome != PASS:
                return f"ell={ell}, k={k}, w={w}: {report.detail}"
    return None


_LEMMA_RUNNERS = {
    "carlitz-von-staudt": _lemma_carlitz,
    "macmillan-sondow": _lemma_macmillan,
    "sandwich": _lemma_sandwich,
    "appendix": _lemma_appendix,
    "modular-collapse": _lemma_collapse,
}


def _cmd_lemmas(args, out) -> int:
    names = list(_LEMMA_RUNNERS) if args.lemma == "all" else [args.lemma]
    failed = False
    for name in names:
        counterexample = _LEMMA_RUNNERS[name](args)
        if counterexample is None:
            print(f"{name}: PASS", file=out)
        else:
            print(f"{name}: FAIL: {counterexample}", file=out)
            failed = True
    return 1 if failed else 0


def main(argv=None) -> int:
    out = sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "decide":
            if args.ell < 1:
                args.usage_error(f"--ell must be >= 1, got {args.ell}")
            return _cmd_decide(args, out)
        if args.command == "sweep":
            try:
                stream = sweep(args.ell_min, args.ell_max, mode=args.mode, workers=args.workers)
            except ValueError as exc:
                args.usage_error(str(exc))
            if args.out != "-":
                try:
                    fh = open(args.out, "w", encoding="utf-8", newline="")
                except OSError as exc:
                    args.usage_error(f"cannot open --out {args.out}: {exc.strerror}")
                with fh:
                    return _cmd_sweep(stream, args, fh)
            return _cmd_sweep(stream, args, out)
        if args.command == "verify":
            if args.n < 1 or args.k < 1 or args.ell < 1:
                args.usage_error("--n, --k and --ell must all be >= 1")
            return _cmd_verify(args, out)
        if args.command == "lemmas":
            if args.k_max < 1 or args.m_max < 3 or args.ell_max < 3 or args.samples < 0:
                args.usage_error("need --k-max >= 1, --m-max >= 3, --ell-max >= 3 and --samples >= 0")
            return _cmd_lemmas(args, out)
        # the subparsers are required, so the command is "oracle"
        if args.ell < 1 or args.n_max < 1 or args.k_max < 1:
            args.usage_error("--ell, --n-max and --k-max must all be >= 1")
        return _cmd_oracle(args, out)
    except SystemExit as exc:
        return int(exc.code or 0)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point what is left of stdout at devnull,
        # so that the flush at exit cannot fail again, and exit as a process
        # killed by SIGPIPE would.  SIGPIPE keeps Python's default (ignored),
        # since the worker pool talks over pipes too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
