"""Independent checker for powerbalance certificates (schema "1").

It reads the canonical JSON a certificate serializes to and re-derives every
fact the verdict rests on with its own integer arithmetic.  It imports
nothing from ``powerbalance``, so a fault in the decider cannot hide itself
by also living in the checker.  For a certificate of exponent ``ell >= 3``:

* the verdict is ``NO_SOLUTION`` with no solutions (the theorem);
* the ``k`` listed are exactly 1, 2, ... up to the last ``k`` with
  ``12 ell^2 k(k+1) <= (ell-1)^2 (ell-2)^2``;
* each window equals ``[ell K + a - b/K, ell K + a]`` with ``K = k(k+1)``,
  ``a = (ell-1)(ell-2)/(12 ell)`` and ``b = 2a^2/ell``, compared by
  cross-multiplication, and the ``w`` listed are exactly the integers from
  its lower end up to ``min(ell K + a, ell K + (ell-3)/12)``;
* every recorded ``f_sign`` equals ``sign(LHS - RHS)`` by direct summation
  with ``n = w - k``; in paranoid mode every candidate has one and it is
  never 0; in fast mode it is missing exactly when a filter FAILed;
* every filter FAIL holds: a prime of ``k(k+1)`` does not divide ``w``;
  ``nu_2(w) <= nu_2(ell)``; ``3 nu_2(K) + 3 > ell``; or the odd prime
  named in the detail divides ``w + 1`` and is not 1 mod
  ``2^(nu_2(ell)+1)``.
"""

import json
import re

SCHEMA = "1"
MODES = ("fast", "paranoid")
NO_SOLUTION = "NO_SOLUTION"
STATUS_FILTERED = "EXCLUDED_BY_FILTER"
STATUS_EVALUATED = "EXCLUDED_BY_EVALUATION"
OUTCOMES = ("PASS", "FAIL", "INCONCLUSIVE")
BASE_FILTERS = ("radical", "g_ge_e_plus_1", "3f_plus_3")
W1 = "w_plus_1_primes"
COLLAPSE = "modular_collapse"
REQUIRED_KEYS = {"schema", "ell", "mode", "verdict", "solutions", "candidates"}
OPTIONAL_KEYS = {"elapsed_ms"}

_W1_WITNESS = re.compile(r"prime (\d+) \| w\+1 = (\d+) ")
_INTEGER = re.compile(r"-?[0-9]+\Z")


class CertificateError(ValueError):
    """A certificate that does not prove what it claims."""


def _fail(ell, message):
    raise CertificateError(f"ell={ell}: {message}")


def nu2(x: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("nu_2(0) is undefined")
    x = abs(x)
    return (x & -x).bit_length() - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def k_max(ell: int) -> int:
    """Largest k with 12 ell^2 k(k+1) <= (ell-1)^2 (ell-2)^2 (0 if none)."""
    cap = (ell - 1) ** 2 * (ell - 2) ** 2
    k = 0
    while 12 * ell * ell * (k + 1) * (k + 2) <= cap:
        k += 1
    return k


def window(ell: int, k: int) -> tuple[int, int, int]:
    """(lower, upper, denominator) of the root window over one denominator.

    With A = (ell-1)(ell-2) and D = 72 ell^3 K:
    ell K + a - b/K = (72 ell^4 K^2 + 6 ell^2 A K - A^2) / D and
    ell K + a = (72 ell^4 K^2 + 6 ell^2 A K) / D.
    """
    K = k * (k + 1)
    A = (ell - 1) * (ell - 2)
    den = 72 * ell**3 * K
    upper = 72 * ell**4 * K * K + 6 * ell * ell * A * K
    return upper - A * A, upper, den


def window_integers(ell: int, k: int) -> range:
    """Integers from the window's lower end to min(upper, ell K + (ell-3)/12)."""
    lower, upper, den = window(ell, k)
    lo = -(-lower // den)
    tight = 12 * ell * k * (k + 1) + ell - 3  # over 12
    if upper * 12 <= tight * den:
        hi = upper // den
    else:
        hi = tight // 12
    return range(lo, hi + 1)


def sign_lhs_minus_rhs(ell: int, k: int, w: int) -> int:
    """sign(n^ell + ... + (n+k)^ell - (n+k+1)^ell - ... - (n+2k)^ell), n = w - k."""
    n = w - k
    lhs = sum((n + j) ** ell for j in range(k + 1))
    rhs = sum((n + j) ** ell for j in range(k + 1, 2 * k + 1))
    return (lhs > rhs) - (lhs < rhs)


def _parse_int(ell, text, what) -> int:
    if not isinstance(text, str) or _INTEGER.match(text) is None:
        _fail(ell, f"{what} {text!r} is not a decimal integer string")
    return int(text)


def _parse_ratio(ell, text, what) -> tuple[int, int]:
    if not isinstance(text, str):
        _fail(ell, f"{what} {text!r} is not a string")
    num, _, den = text.partition("/")
    den = den or "1"
    p = _parse_int(ell, num, what)
    q = _parse_int(ell, den, what)
    if q <= 0:
        _fail(ell, f"{what} {text!r} has a nonpositive denominator")
    return p, q


def _check_fail_witness(ell, k, w, name, detail):
    K = k * (k + 1)
    if name == "radical":
        if all(w % p == 0 for p in prime_divisors(K)):
            _fail(ell, f"k={k} w={w}: radical FAIL, but every prime of {K} divides w")
    elif name == "g_ge_e_plus_1":
        if nu2(w) > nu2(ell):
            _fail(ell, f"k={k} w={w}: g FAIL, but nu_2(w) = {nu2(w)} > nu_2(ell) = {nu2(ell)}")
    elif name == "3f_plus_3":
        if 3 * nu2(K) + 3 <= ell:
            _fail(ell, f"k={k} w={w}: 3f+3 FAIL, but 3 nu_2(K) + 3 = {3 * nu2(K) + 3} <= ell")
    elif name == W1:
        match = _W1_WITNESS.match(detail if isinstance(detail, str) else "")
        if match is None or int(match.group(2)) != w + 1:
            _fail(ell, f"k={k} w={w}: w+1 FAIL names no witness prime: {detail!r}")
        p = int(match.group(1))
        modulus = 2 ** (nu2(ell) + 1)
        if p % 2 == 0 or not is_prime(p) or (w + 1) % p != 0 or p % modulus == 1:
            _fail(ell, f"k={k} w={w}: w+1 FAIL witness {p} is not an odd prime of w+1 "
                       f"that is not 1 mod {modulus}")
    else:
        _fail(ell, f"k={k} w={w}: FAIL from {name}, which excludes nothing")


def _check_candidate(ell, mode, k, w, entry) -> bool:
    """Check one integer candidate; return True when its f_sign was recomputed."""
    if not isinstance(entry, dict) or set(entry) != {"w", "filters", "f_sign", "status"}:
        _fail(ell, f"k={k}: malformed candidate entry {entry!r}")
    filters = entry["filters"]
    if not isinstance(filters, dict):
        _fail(ell, f"k={k} w={w}: filters is not an object")
    expected = set(BASE_FILTERS) | ({W1} if ell % 2 == 0 else set())
    if not expected <= set(filters) or not set(filters) <= expected | {COLLAPSE}:
        _fail(ell, f"k={k} w={w}: filters {sorted(filters)} are not the filter set {sorted(expected)}")
    failed = False
    for name, report in filters.items():
        if not isinstance(report, dict) or set(report) != {"outcome", "detail"}:
            _fail(ell, f"k={k} w={w}: malformed report for {name}")
        outcome = report["outcome"]
        if outcome not in OUTCOMES:
            _fail(ell, f"k={k} w={w}: unknown outcome {outcome!r} from {name}")
        if outcome == "INCONCLUSIVE" and name != W1:
            _fail(ell, f"k={k} w={w}: {name} cannot be INCONCLUSIVE")
        if name == COLLAPSE:
            if outcome != "PASS":
                _fail(ell, f"k={k} w={w}: collapse replay reports {outcome}: {report['detail']}")
            continue
        if outcome == "FAIL":
            _check_fail_witness(ell, k, w, name, report["detail"])
            failed = True
    sign = entry["f_sign"]
    status = entry["status"]
    if sign is None:
        if mode == "paranoid":
            _fail(ell, f"k={k} w={w}: paranoid certificate leaves f unevaluated")
        if not failed:
            _fail(ell, f"k={k} w={w}: f unevaluated although no filter FAILed")
        if status != STATUS_FILTERED:
            _fail(ell, f"k={k} w={w}: unevaluated candidate has status {status!r}")
        return False
    if sign not in (-1, 0, 1) or isinstance(sign, bool):
        _fail(ell, f"k={k} w={w}: f_sign {sign!r} is not -1, 0 or 1")
    if mode == "fast" and failed:
        _fail(ell, f"k={k} w={w}: fast mode evaluated a filter-excluded candidate")
    actual = sign_lhs_minus_rhs(ell, k, w)
    if sign != actual:
        _fail(ell, f"k={k} w={w}: f_sign {sign} but sign(LHS - RHS) = {actual}")
    if actual == 0:
        _fail(ell, f"k={k} w={w}: a solution, contradicting NO_SOLUTION")
    if status != STATUS_EVALUATED:
        _fail(ell, f"k={k} w={w}: evaluated candidate has status {status!r}")
    return True


def check_certificate(cert) -> dict:
    """Verify one certificate (a JSON string or its parsed object).

    Returns counts of what was checked; raises CertificateError on the first
    fact that does not hold.
    """
    if isinstance(cert, (str, bytes)):
        try:
            cert = json.loads(cert)
        except json.JSONDecodeError as err:
            raise CertificateError(f"certificate is not JSON: {err}") from None
    if not isinstance(cert, dict):
        raise CertificateError(f"certificate is not a JSON object: {type(cert).__name__}")
    schema = cert.get("schema")
    if schema != SCHEMA:
        raise CertificateError(f"unknown certificate schema {schema!r}; this checker reads schema {SCHEMA!r}")
    ell = cert.get("ell")
    keys = set(cert)
    if not REQUIRED_KEYS <= keys or not keys <= REQUIRED_KEYS | OPTIONAL_KEYS:
        _fail(ell, f"keys {sorted(keys)} are not the schema-1 keys for ell >= 3")
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 3:
        _fail(ell, "this checker covers exponents ell >= 3")
    mode = cert["mode"]
    if mode not in MODES:
        _fail(ell, f"unknown mode {mode!r}")
    if cert["verdict"] != NO_SOLUTION or cert["solutions"] != []:
        _fail(ell, f"verdict {cert['verdict']!r} with solutions {cert['solutions']!r}; "
                   f"the equation has no solutions for ell >= 3")
    records = cert["candidates"]
    if not isinstance(records, list):
        _fail(ell, "candidates is not a list")
    top = k_max(ell)
    if len(records) != top:
        _fail(ell, f"{len(records)} values of k listed, the cap allows exactly {top}")
    integers = evaluated = 0
    for k, rec in enumerate(records, start=1):
        if not isinstance(rec, dict) or set(rec) != {"k", "window", "ws"}:
            _fail(ell, f"malformed record for k={k}")
        if _parse_int(ell, rec["k"], "k") != k:
            _fail(ell, f"record {k} lists k={rec['k']}")
        lower, upper, den = window(ell, k)
        win = rec["window"]
        if not isinstance(win, list) or len(win) != 2:
            _fail(ell, f"k={k}: window is not a pair")
        for name, value, text in (("lower", lower, win[0]), ("upper", upper, win[1])):
            p, q = _parse_ratio(ell, text, f"k={k} window {name}")
            if p * den != value * q:
                _fail(ell, f"k={k}: window {name} {text} is not {value}/{den}")
        expected = window_integers(ell, k)
        entries = rec["ws"]
        if not isinstance(entries, list):
            _fail(ell, f"k={k}: ws is not a list")
        listed = [_parse_int(ell, e.get("w") if isinstance(e, dict) else None, f"k={k} w")
                  for e in entries]
        if listed != list(expected):
            _fail(ell, f"k={k}: candidates {listed} are not the window integers {list(expected)}")
        for w, entry in zip(listed, entries):
            evaluated += _check_candidate(ell, mode, k, w, entry)
        integers += len(listed)
    return {"ell": ell, "mode": mode, "k": top, "integers": integers, "evaluated": evaluated}

