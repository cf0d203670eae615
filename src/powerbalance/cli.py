"""Command-line front end.

Subcommands:

  decide   decide one exponent, emit a JSON certificate or a summary line
  sweep    decide a range of exponents, stream CSV / JSON-lines / certificates
  verify   check the balanced equation at one concrete (n, k, ell)
  lemmas   run the supporting lemma checkers over configurable ranges
  oracle   brute-force search of an (n, k) box

Exit codes: 0 success (or verdict as expected), 1 domain-level FALSE or
counterexample, 2 usage error.  All emitted numbers are exact: integers or
"p/q" strings, never floats.  Configuration is flags only -- no environment
variables -- so invocations reproduce exactly.
"""

import argparse
import csv
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .bounds import check_appendix_identity, check_sandwich, compute_bounds, integers_in_window
from .decider import FAMILY, FAST, PARANOID, certificate_json, decide, sweep
from .equation import verify_instance
from .filters import PASS, check_modular_collapse, filter_radical
from .oracle import oracle_search
from .powersum import check_carlitz_von_staudt, check_macmillan_sondow

SWEEP_CSV_COLUMNS = ["ell", "verdict", "num_candidate_k", "num_integer_candidates", "elapsed_ms"]

LEMMA_NAMES = ["carlitz-von-staudt", "macmillan-sondow", "sandwich", "appendix", "modular-collapse"]


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
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", help="full JSON certificate (default)")
    fmt.add_argument("--summary", dest="summary", action="store_true", help="one-line verdict")

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
    p.add_argument("--lemma", default="all", help="one of: " + ", ".join(LEMMA_NAMES) + ", all")
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

    return parser


def _cmd_decide(args, out) -> int:
    cert = decide(args.ell, mode=args.mode)
    if args.summary:
        if cert.verdict == FAMILY:
            print(f"FAMILY w={cert.family['w']} (ell={cert.ell})", file=out)
        else:
            n_k = sum(len(r.integer_candidates) for r in cert.candidates)
            print(
                f"{cert.verdict} (ell={cert.ell}, candidate k values: "
                f"{len(cert.candidates)}, integer candidates: {n_k})",
                file=out,
            )
    else:
        print(certificate_json(cert), file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    stream = sweep(args.ell_min, args.ell_max, mode=args.mode, workers=args.workers)
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SWEEP_CSV_COLUMNS)
        for cert in stream:
            writer.writerow(_summary_row(cert))
            out.flush()
    elif args.format == "jsonl":
        for cert in stream:
            row = dict(zip(SWEEP_CSV_COLUMNS, _summary_row(cert)))
            print(json.dumps(row, sort_keys=True, separators=(",", ":")), file=out)
            out.flush()
    else:
        for cert in stream:
            print(certificate_json(cert), file=out)
            out.flush()
    return 0


def _summary_row(cert):
    return [
        cert.ell,
        cert.verdict,
        len(cert.candidates),
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
    fixed = [(8, 1, 16), (5, 1, 10), (9, 2, 54)]
    for ell, k, w in fixed:
        report = check_modular_collapse(ell, k, w)
        if report.outcome != PASS:
            return f"ell={ell}, k={k}, w={w}: {report.detail}"
    for ell in range(5, args.ell_max + 1):
        for k in range(1, args.k_max + 1):
            for w in integers_in_window(compute_bounds(ell, k)):
                if w % 2 != 0 or filter_radical(k, w).failed:
                    continue
                report = check_modular_collapse(ell, k, w)
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


def _cmd_lemmas(args, out, parser) -> int:
    if args.lemma == "all":
        names = LEMMA_NAMES
    elif args.lemma in _LEMMA_RUNNERS:
        names = [args.lemma]
    else:
        parser.error(f"unknown lemma {args.lemma!r}; choose from {', '.join(LEMMA_NAMES)}, all")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = sys.stdout
    try:
        if args.command == "decide":
            if args.ell < 1:
                parser.error(f"--ell must be >= 1, got {args.ell}")
            return _cmd_decide(args, out)
        if args.command == "sweep":
            if not 1 <= args.ell_min <= args.ell_max:
                parser.error(f"need 1 <= --ell-min <= --ell-max, got {args.ell_min}..{args.ell_max}")
            if args.workers < 1:
                parser.error("--workers must be >= 1")
            if args.out != "-":
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    return _cmd_sweep(args, fh)
            return _cmd_sweep(args, out)
        if args.command == "verify":
            if args.n < 1 or args.k < 1 or args.ell < 1:
                parser.error("--n, --k and --ell must all be >= 1")
            return _cmd_verify(args, out)
        if args.command == "lemmas":
            if args.k_max < 1 or args.m_max < 3 or args.ell_max < 3 or args.samples < 0:
                parser.error("need --k-max >= 1, --m-max >= 3, --ell-max >= 3 and --samples >= 0")
            return _cmd_lemmas(args, out, parser)
        if args.command == "oracle":
            if args.ell < 1 or args.n_max < 1 or args.k_max < 1:
                parser.error("--ell, --n-max and --k-max must all be >= 1")
            return _cmd_oracle(args, out)
        parser.error(f"unknown command {args.command!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
