"""Mutation gate: each recorded fault, planted in a copy of the package, must fail its tests.

    python3 tools/mutants.py

Run from anywhere; only the standard library is used, and pytest runs in a
subprocess.  Each row of MUTANTS names a file under src/powerbalance, the
exact text to replace, its replacement and the pytest node ids that must
each fail with it in place.  The gate first runs every named test on an
unmutated copy, where all must pass.  Then, for each row, it copies src/,
tests/ and pyproject.toml to a temporary directory, applies the
replacement there and runs only that row's tests.  The repository itself
is never edited.

The gate fails (exit 1) when a named test does not pass unmutated, when a
row's old text does not occur exactly once in its file, so that a rename
surfaces, when a named test passes with the mutation in place (the mutant
survives), or when pytest ends in an error rather than a test failure.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
PACKAGE = Path("src", "powerbalance")
# pytest's exit status when at least one selected test failed
TESTS_FAILED = 1


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


EQ_WINDOWS = "tests/test_equation.py::test_balance_sign_matches_direct_summation_on_every_window"
EQ_FEW_BITS = "tests/test_equation.py::test_interval_sign_agrees_when_it_starts_at_a_few_bits"
EQ_BRACKETS = "tests/test_equation.py::test_power_bounds_bracket_the_power"

MUTANTS = (
    Mutant(
        "rho_denominator_shifted", "equation.py",
        "g_next * (m + 3) * (m + 4) > g * lk2",
        "g_next * (m + 5) * (m + 6) > g * lk2",
        (EQ_WINDOWS,),
    ),
    Mutant(
        "one_minus_rho_dropped", "equation.py",
        "g_next * (m + 3) * (m + 4) > g * lk2",
        "g_next > 0",
        (EQ_WINDOWS,),
    ),
    Mutant(
        "binomial_numerator_shifted", "equation.py",
        "binom * (ell - m) * (ell - m - 1) // ((m + 1) * (m + 2))  # C(ell, m+2)",
        "binom * (ell - m - 2) * (ell - m - 3) // ((m + 1) * (m + 2))  # C(ell, m+2)",
        (EQ_WINDOWS,),
    ),
    Mutant(
        "first_tail_term_from_sums_m", "equation.py",
        "head = 2 * binom * sums[m + 2]",
        "head = 2 * binom * sums[m]",
        (EQ_WINDOWS,),
    ),
    Mutant(
        "interval_rounding_unit_dropped", "equation.py",
        "gap, e = 1 + (-(-gap >> drop)), e + drop",
        "gap, e = -(-gap >> drop), e + drop",
        (EQ_BRACKETS, EQ_FEW_BITS),
    ),
    Mutant(
        "interval_cross_term_halved", "equation.py",
        "2 * top * gap + gap * gap",
        "top * gap + gap * gap",
        (EQ_BRACKETS, EQ_FEW_BITS),
    ),
    Mutant(
        "interval_square_term_dropped", "equation.py",
        "2 * top * gap + gap * gap",
        "2 * top * gap",
        (EQ_BRACKETS,),
    ),
    Mutant(
        "interval_gap_not_scaled_by_the_top_x", "equation.py",
        "gap *= top_x",
        "pass",
        (EQ_BRACKETS, EQ_FEW_BITS),
    ),
    Mutant(
        "interval_slack_dropped_from_the_low_end", "equation.py",
        "low, high = diff - k * gap,",
        "low, high = diff,",
        (EQ_FEW_BITS,),
    ),
    Mutant(
        "window_drops_its_top_integer", "bounds.py",
        "return list(range(-(-lower // den), upper // den + 1))",
        "return list(range(-(-lower // den), upper // den))",
        ("tests/test_bounds.py::test_integer_window_examples",),
    ),
    Mutant(
        "k_star_bound_off_by_one", "bounds.py",
        "(r * ell + 2)",
        "(r * ell + 1)",
        ("tests/test_bounds.py::test_windows_hold_integers_exactly_up_to_k_star",
         "tests/test_decider.py::test_certificate_bytes_are_pinned"),
    ),
    Mutant(
        "record_rendered_under_the_next_window", "decider.py",
        '"ws":[{ws.pop(k, "")}]',
        '"ws":[{ws.pop(k - 1, "")}]',
        ("tests/test_decider.py::test_certificate_json_renders_the_reference_tree",
         "tests/test_decider.py::test_certificate_bytes_are_pinned"),
    ),
    Mutant(
        "windows_rendered_from_k_2", "decider.py",
        "for k in range(1, k_max(ell) + 1):",
        "for k in range(2, k_max(ell) + 1):",
        ("tests/test_decider.py::test_decide_eight_has_one_empty_window",
         "tests/test_decider.py::test_candidate_k_are_exactly_those_under_the_sharp_cap",
         "tests/test_decider.py::test_empty_windows_render_as_their_fractions"),
    ),
    Mutant(
        "record_without_a_window_dropped", "decider.py",
        "    if ws:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
        ("tests/test_decider.py::test_certificate_json_rejects_a_record_without_a_window",),
    ),
    Mutant(
        "nonempty_check_passes_an_empty_record", "decider.py",
        "        if not rec.per_candidate:\n",
        "        if rec.per_candidate is None:\n",
        ("tests/test_decider.py::test_scan_beyond_the_cap_raises_on_a_nonempty_window",
         "tests/test_decider.py::test_paranoid_mode_rejects_K_star_one_step_off[1-64]"),
    ),
    Mutant(
        "nonempty_scan_starts_one_k_late", "decider.py",
        "range(len(records) + 1, ",
        "range(len(records) + 2, ",
        ("tests/test_decider.py::test_scan_beyond_the_cap_raises_on_a_nonempty_window",
         "tests/test_decider.py::test_paranoid_mode_rejects_K_star_one_step_off[-1-27]"),
    ),
    Mutant(
        "ratio_str_unreduced", "decider.py",
        'return f"{p // g}/{q // g}"',
        'return f"{p}/{q}"',
        ("tests/test_decider.py::test_window_ends_render_as_reduced_fractions",),
    ),
    Mutant(
        "filters_rendered_in_record_order", "decider.py",
        "sorted(ev.filters, key=_by_name)",
        "ev.filters",
        ("tests/test_decider.py::test_certificate_json_renders_the_reference_tree",
         "tests/test_decider.py::test_certificate_bytes_are_pinned"),
    ),
    Mutant(
        "filter_detail_quoted_unescaped", "decider.py",
        '"detail":{_esc(r.detail)}',
        '"detail":"{r.detail}"',
        ("tests/test_decider.py::test_certificate_json_escapes_strings_as_json_dumps_does",),
    ),
    Mutant(
        "record_slots_dropped", "decider.py",
        "    __slots__ = ()\n\n    @property\n    def integer_candidates",
        "    @property\n    def integer_candidates",
        ("tests/test_decider.py::test_records_have_no_instance_dict",),
    ),
    Mutant(
        "collapse_s_exp_off_by_one", "filters.py",
        "s_exp = 2 * f - 1 + 2 * g + e",
        "s_exp = 2 * f + 2 * g + e",
        ("tests/test_filters.py::test_collapse_matches_reference_on_every_exit_at_both_parities",),
    ),
    Mutant(
        "valuation_check_skips_m_1", "decider.py",
        "if sums[1] & (2 * b1 - 1) != b1:",
        "if False:",
        ("tests/test_filters.py::test_sum_valuations_name_the_m_of_a_zero_sum[0]",
         "tests/test_filters.py::test_corrupted_batches_are_rejected_in_both_modes"),
    ),
    Mutant(
        "valuation_mask_one_bit_short", "decider.py",
        "repeat(2 * b - 1)",
        "repeat(b - 1)",
        ("tests/test_filters.py::test_sum_valuations_match_nu_on_true_and_shifted_batches",
         "tests/test_filters.py::test_sum_valuations_read_sums_past_the_low_word_exactly"),
    ),
    Mutant(
        "collapse_m1_without_f", "filters.py",
        "m1 = e + (top_m - 1) * g + f",
        "m1 = e + (top_m - 1) * g",
        ("tests/test_filters.py::test_collapse_matches_reference_on_every_exit_at_both_parities",),
    ),
    Mutant(
        "collapse_top_m_parity_flipped", "filters.py",
        "top_m = ell - 1 + ell % 2",
        "top_m = ell - ell % 2",
        ("tests/test_filters.py::test_collapse_matches_reference_on_every_exit_at_both_parities",
         "tests/test_filters.py::test_collapse_matches_reference_on_every_sweep_replay"),
    ),
    Mutant(
        "collapse_m1_bound_not_strict", "filters.py",
        "if m1 < s_exp:",
        "if m1 <= s_exp:",
        ("tests/test_filters.py::test_collapse_matches_reference_on_every_exit_at_both_parities",),
    ),
    Mutant(
        "lemma_kummer_check_skips_top_m", "cli.py",
        "v != e and m in (1, top_m)",
        "v != e and m == 1",
        ("tests/test_cli.py::test_lemmas_report_a_planted_failure[modular-collapse-nu2_binomial-point5-2-"
         "ell=10, m=9: nu_2(C(ell, m)) = 2 against e = 1]",),
    ),
    Mutant(
        "batch_ignores_its_base_row", "powersum.py",
        "rows.append(base.values())",
        "pass",
        ("tests/test_powersum.py::test_batch_advances_from_a_previous_batch",),
    ),
    Mutant(
        "closed_row_memo_at_the_wrong_k", "decider.py",
        "closed = _closed_row(k)",
        "closed = _closed_row(k + 1)",
        ("tests/test_decider.py::test_warm_closed_row_memo_still_rejects_a_corrupted_batch",
         "tests/test_decider.py::test_certificate_bytes_are_pinned"),
    ),
    Mutant(
        "closed_form_compared_at_the_first_m_only", "decider.py",
        "any(map(ne, sums.values(), closed))",
        "any(map(ne, sums.values(), closed[:1]))",
        ("tests/test_decider.py::test_warm_closed_row_memo_still_rejects_a_corrupted_batch",),
    ),
    Mutant(
        "closed_row_stops_short", "decider.py",
        "for m in range(1, _CLOSED_CHECK_M_MAX + 1, 2))",
        "for m in range(1, _CLOSED_CHECK_M_MAX - 1, 2))",
        ("tests/test_decider.py::test_closed_row_is_faulhaber_at_every_checked_m",),
    ),
    Mutant(
        "small_batch_never_grows", "decider.py",
        "full = powersum_batch(self._k, self._ell)",
        "full = dict(self)",
        ("tests/test_decider.py::test_fast_batch_grows_on_demand_and_checks_what_it_grows",
         "tests/test_decider.py::test_paranoid_batch_grows_on_demand_and_crosschecks_what_it_grows"),
    ),
    Mutant(
        "grown_batch_skips_its_check", "decider.py",
        "            self._check(self._k, full)\n",
        "",
        ("tests/test_decider.py::test_a_corrupted_grown_batch_is_rejected_before_the_sign_reads_it",
         "tests/test_decider.py::test_fast_batch_grows_on_demand_and_checks_what_it_grows",
         "tests/test_decider.py::test_paranoid_batch_grows_on_demand_and_crosschecks_what_it_grows"),
    ),
    Mutant(
        "paranoid_growth_checks_valuations_only", "decider.py",
        "_SmallBatch(ell, k, sums, check)",
        "_SmallBatch(ell, k, sums, _check_valuations)",
        ("tests/test_decider.py::test_a_corrupted_grown_batch_is_rejected_before_the_sign_reads_it",
         "tests/test_decider.py::test_paranoid_batch_grows_on_demand_and_crosschecks_what_it_grows"),
    ),
    Mutant(
        "paranoid_top_past_closed_check", "decider.py",
        "m_max, check = min(ell, _CLOSED_CHECK_M_MAX)",
        "m_max, check = min(ell, _CLOSED_CHECK_M_MAX + 2)",
        ("tests/test_decider.py::test_running_batch_equals_direct_sums[75-paranoid]",
         "tests/test_decider.py::test_paranoid_batches_at_large_ell_hold_only_faulhaber_checked_sums"),
    ),
    Mutant(
        "empty_window_upper_unreduced", "decider.py",
        "g = gcd(A, 12 * ell)",
        "g = 1",
        ("tests/test_decider.py::test_empty_windows_render_as_their_fractions",
         "tests/test_decider.py::test_certificate_bytes_are_pinned"),
    ),
    Mutant(
        "decide_passes_w_for_g", "decider.py",
        "check_modular_collapse(ell, k, nu(w))",
        "check_modular_collapse(ell, k, w)",
        ("tests/test_filters.py::test_collapse_matches_reference_on_every_sweep_replay",
         "tests/test_decider.py::test_certificate_bytes_are_pinned"),
    ),
    Mutant(
        "collapse_accepts_g_0", "filters.py",
        "if g < 1:",
        "if g < 0:",
        ("tests/test_filters.py::test_collapse_preconditions",),
    ),
    Mutant(
        "radical_filter_on_rad_k_plus_2", "filters.py",
        "return rad(k) * rad(k + 1)",
        "return rad(k) * rad(k + 2)",
        ("tests/test_filters.py::test_radical_filter",),
    ),
    Mutant(
        "factor_strips_each_prime_once", "arith.py",
        "while x % d == 0:",
        "if x % d == 0:",
        ("tests/test_arith.py::test_rad_is_the_product_of_the_distinct_primes",),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the row's old text occurs in its file under root."""
    return (root / PACKAGE / mutant.file).read_text().count(mutant.old)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(cwd: Path, test: str) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "addopts=", test]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutants) -> list[str]:
    """Run the gate over mutants; return one line per problem, none if all are killed."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp, "base")
        _copy(base)
        for test in sorted({t for m in mutants for t in m.tests}):
            if _pytest(base, test) != 0:
                problems.append(f"unmutated: {test} does not pass")
        for mutant in mutants:
            count = occurrences(mutant, base)
            if count != 1:
                problems.append(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
                continue
            work = Path(tmp, mutant.name)
            _copy(work)
            target = work / PACKAGE / mutant.file
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            for test in mutant.tests:
                t0 = time.perf_counter()
                status = _pytest(work, test)
                took = time.perf_counter() - t0
                verdict = "killed" if status == TESTS_FAILED else (
                    "SURVIVED" if status == 0 else f"pytest exit {status}")
                print(f"{mutant.name}: {verdict} under {test} ({took:.1f} s)", flush=True)
                if status != TESTS_FAILED:
                    problems.append(f"{mutant.name}: {verdict} under {test}")
    return problems


def main() -> int:
    t0 = time.perf_counter()
    problems = run(MUTANTS)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{'FAIL' if problems else 'OK'}: gate took {time.perf_counter() - t0:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
