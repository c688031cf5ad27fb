"""
A committed mutation battery: small named changes to src/ that each
disable or weaken one guard, and the tier-1 test expected to kill each.

    python tests/mutants.py [NAME ...]

applies each named mutant (all of MUTANTS when none is named) to a copy
of the checkout under a temporary directory, runs tier-1 there with -x,
and reports whether the mutant was killed and by which test.  The
checkout itself is never edited.  A mutant of EQUIVALENT, which changes
no result, runs only when named, and is expected to survive.  Exit
status 1 if a mutant of MUTANTS survived or one of EQUIVALENT was
killed.

The mutant's expected test runs on its own first; only when it passes
does the whole of tier-1 run, so a survivor costs a full tier-1 run.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

Mutant = namedtuple("Mutant", "path old new killer")
Equivalent = namedtuple("Equivalent", "path old new reason")

_CLI = "src/curvelat/cli.py"
_CURVE = "src/curvelat/curve.py"
_D0 = "src/curvelat/oslattice.py"
_HILBERT = "src/curvelat/hilbert.py"
_LATTHOM = "src/curvelat/latthom.py"
_SERIES = "src/curvelat/series.py"

MUTANTS = {
    # two whitespace runs with only an optional '-' between them
    "parse-sign-quadratic": Mutant(
        "src/curvelat/exactalg.py",
        r"(?:(-)\s*)? (\d+)",
        r"(-)?\s* (\d+)",
        "tests/test_exactalg.py"
        "::test_parse_error_after_long_whitespace_is_linear"),
    "parse-exponent-without-t": Mutant(
        "src/curvelat/exactalg.py",
        r"(?:(?<=t)\s*\^",
        r"(?:\s*\^",
        "tests/test_exactalg.py::test_parse_errors"),
    "parse-zero-denominator-late": Mutant(
        "src/curvelat/exactalg.py",
        """\
        if den and _int(m, 4) == 0:
            raise PolySyntaxError("zero denominator", m.start(4))
        if star_t == "":
            raise PolySyntaxError("expected 't' after '*'", m.start(5))
""",
        """\
        if star_t == "":
            raise PolySyntaxError("expected 't' after '*'", m.start(5))
        if den and _int(m, 4) == 0:
            raise PolySyntaxError("zero denominator", m.start(4))
""",
        "tests/test_exactalg.py::test_parse_errors"),
    "parse-empty-check-off": Mutant(
        "src/curvelat/exactalg.py",
        "if not text.strip():",
        "if False:",
        "tests/test_exactalg.py::test_parse_errors"),
    "parse-trailing-text-accepted": Mutant(
        "src/curvelat/exactalg.py",
        "if m.end() == len(text):",
        "if True:",
        "tests/test_exactalg.py::test_parse_errors"),
    "parse-minus-read-as-plus": Mutant(
        "src/curvelat/exactalg.py",
        """-1 if op == "-" else 1""",
        "1",
        "tests/test_exactalg.py::test_parse_full_expression"),
    # the number rule of TruncSeries: an int when integral
    "integral-fraction-kept": Mutant(
        "src/curvelat/exactalg.py",
        "return c.numerator if c.denominator == 1 else c",
        "return c",
        "tests/test_hilbert.py"
        "::test_coefficients_are_ints_exactly_when_integral"),
    "parse-drops-denominator": Mutant(
        "src/curvelat/exactalg.py",
        "c = _rational(c, _int(m, 4))",
        "c = _rational(c, 1)",
        "tests/test_exactalg.py::test_parse_full_expression"),
    "fractions-imported-at-module-level": Mutant(
        "src/curvelat/exactalg.py",
        "from math import gcd, lcm\n",
        "from fractions import Fraction\nfrom math import gcd, lcm\n",
        "tests/test_cli.py::test_integral_curves_never_import_fractions"),
    "series-box-length-unchecked": Mutant(
        _SERIES,
        "if len(self.box) != r:",
        "if False:",
        "tests/test_series.py"
        "::test_round_trip_refuses_a_series_box_of_other_length"),
    "series-term-length-unchecked": Mutant(
        _SERIES,
        "if len(v) != r:",
        "if False:",
        "tests/test_series.py::test_series_refuses_a_term_of_other_length"),
    # the command table: usage errors, choices, required flags and
    # abbreviated long flags
    "usage-error-exits-zero": Mutant(
        _CLI,
        'print("curvelat: error: " + message, file=sys.stderr)\n'
        "        return 2",
        'print("curvelat: error: " + message, file=sys.stderr)\n'
        "        return 0",
        "tests/test_cli.py::test_argv_table"),
    "choices-unchecked": Mutant(
        _CLI,
        "if arg.choices and value not in arg.choices:",
        "if False:",
        "tests/test_cli.py::test_argv_table"),
    "required-flag-unchecked": Mutant(
        _CLI,
        "and (a.required or not _is_flag(a))",
        "and not _is_flag(a)",
        "tests/test_cli.py::test_argv_table"),
    "abbrev-dropped": Mutant(
        _CLI,
        'if n == key or key[:2] == "--" and key != "--"\n'
        "            and n.startswith(key)]",
        "if n == key]",
        "tests/test_cli.py::test_argv_table"),
    "d0-kills-independent-off": Mutant(
        _D0,
        "if any(col and ok for",
        "if False and any(col and ok for",
        "tests/test_oslattice.py"
        "::test_d0_structure_checks_detect_independent_generator_hit"),
    "d0-kernel-off": Mutant(
        _D0,
        "if rank_rational(indep_vectors + image_d0) != kernel_dim:",
        "if False:",
        "tests/test_oslattice.py"
        "::test_d0_structure_checks_detect_lost_kernel"),
    "d0-split-off": Mutant(
        _D0,
        "if sum(dim_image + len(span)",
        "if False and sum(dim_image + len(span)",
        "tests/test_oslattice.py"
        "::test_d0_structure_checks_detect_unsplit_image"),
    "d0-ideal-off": Mutant(
        _D0,
        "if dim - rank_rational(ideal) != expected:",
        "if False:",
        "tests/test_oslattice.py"
        "::test_d0_structure_checks_detect_wrong_ideal"),
    "symmetry-mirror-shifted": Mutant(
        _HILBERT,
        "zip(box_points(l), h, reversed(h))",
        "zip(box_points(l), h, reversed(h[:-1]))",
        "tests/test_hilbert.py::test_symmetry_all_corpus"),
    "oracle-column-cut-late": Mutant(
        _CURVE,
        "if e >= n:",
        "if e > n:",
        "tests/test_curve.py::test_h_monomial_cutoff_generated"),
    "oracle-extension-rewrites-built-columns": Mutant(
        _CURVE,
        "jet[bisect_left(jet, (built,)):]",
        "jet",
        "tests/test_hilbert.py"
        "::test_spot_check_catches_a_poisoned_oracle_column"),
    "oracle-drops-last-branch": Mutant(
        _CURVE,
        "key = tuple(map(index, v[::-1]))",
        "key = (0,) + tuple(map(index, v[-2::-1]))",
        "tests/test_curve.py"
        "::test_h_matches_reference_grid_two_smooth_branches"),
    # the trie walk of oracle_values
    "oracle-node-shares-parent-basis": Mutant(
        _CURVE,
        """\
                bases.append(dict(bases[j]))
                echelon_extend(bases[-1],
                               _blocks(branches[j:j + 1], key[j:j + 1]))
                j += 1
            basis = dict(bases[j]) if j == shared else bases[j]
""",
        """\
                bases.append(bases[j])
                echelon_extend(bases[-1],
                               _blocks(branches[j:j + 1], key[j:j + 1]))
                j += 1
            basis = bases[j]
""",
        "tests/test_curve.py"
        "::test_oracle_values_are_the_flat_ranks_of_each_point"),
    "oracle-ascending-order": Mutant(
        _CURVE,
        """\
    branches = curve.branches[::-1]
    r, kept = len(branches), curve.truncation
    keys = []
    for v in points:
        if len(v) != r:
            raise ValueError("expected %d coordinates, got %d" % (r, len(v)))
        key = tuple(map(index, v[::-1]))
""",
        """\
    branches = curve.branches[:]
    r, kept = len(branches), curve.truncation
    keys = []
    for v in points:
        if len(v) != r:
            raise ValueError("expected %d coordinates, got %d" % (r, len(v)))
        key = tuple(map(index, v))
""",
        "tests/test_curve.py"
        "::test_h_oracle_ranks_the_nonzero_columns_of_the_definition"),
    "oracle-leaf-skips-branch-0": Mutant(
        _CURVE,
        "_blocks(branches[j:], key[j:])",
        "_blocks(branches[j:-1], key[j:-1])",
        "tests/test_curve.py"
        "::test_oracle_values_are_the_flat_ranks_of_each_point"),
    "fill-drops-top-degree": Mutant(
        _HILBERT,
        "for d in range(max(l))",
        "for d in range(max(l) - 1)",
        "tests/test_hilbert.py::test_table_agrees_with_oracle_everywhere"),
    "fill-inserts-before-recursing": Mutant(
        _HILBERT,
        """\
            sweep(depth + 1, basis)
            basis = echelon_insert(basis, col)
""",
        """\
            basis = echelon_insert(basis, col)
            sweep(depth + 1, basis)
""",
        "tests/test_hilbert.py::test_table_agrees_with_oracle_everywhere"),
    "fill-column-cut-early": Mutant(
        _HILBERT,
        "if e >= n:",
        "if e >= n - 1:",
        "tests/test_hilbert.py::test_table_agrees_with_oracle_everywhere"),
    "grid-drops-excess": Mutant(
        _HILBERT,
        "return [values[o] + p for o, p in zip(offsets, pasts)]",
        "return [values[o] for o in offsets]",
        "tests/test_hilbert.py::test_grid_is_value_at_every_point"),
    "pi-passes-stop-short": Mutant(
        _SERIES,
        "range(size - 1)):\n            d[here]",
        "range(size - 2)):\n            d[here]",
        "tests/test_series.py"
        "::test_poincare_from_hilbert_is_pi_value_at_every_point"),
    "sweep-or-pass-uncapped": Mutant(
        _HILBERT,
        "axis_pairs(box, j, range(l[j] - 1, -1, -1))",
        "axis_pairs(box, j, range(box[j] - 2, -1, -1))",
        "tests/test_hilbert.py"
        "::test_sweep_raises_exactly_when_the_witness_search_does"),
    "sweep-or-pass-keeps-bit": Mutant(
        _HILBERT,
        "found[here] = [f | a & keep",
        "found[here] = [f | a",
        "tests/test_hilbert.py"
        "::test_sweep_agrees_with_the_witness_search_on_the_corpus"),
    "large-n-steps-without-memo": Mutant(
        _HILBERT,
        "h = [known[v] if v in known else h_oracle(curve, v) for v in line]",
        "h = oracle_values(curve, line)",
        "tests/test_hilbert.py::test_large_n_steps_compute_each_point_once"),
    # the round trip's rebuild of h from the pi series
    "rebuild-term-at-w-on-first-axis": Mutant(
        _SERIES,
        "lift = sum(k * s for k, s in zip(on, strides))",
        "lift = sum(k * s for k, s in zip(on[1:], strides[1:]))",
        "tests/test_series.py::test_round_trip_reconstructs_h"),
    "rebuild-passes-stop-short": Mutant(
        _SERIES,
        "range(size - 1)):\n            h[ahead]",
        "range(size - 2)):\n            h[ahead]",
        "tests/test_series.py::test_rebuild_is_the_running_sums_by_subsets"),
    "rebuild-even-sign-flipped": Mutant(
        _SERIES,
        "sign = 1 if len(upper) % 2 else -1",
        "sign = 1",
        "tests/test_series.py::test_round_trip_reconstructs_h"),
    "hilbert-series-by-value": Mutant(
        _SERIES,
        "coeffs = {(v, 0): h for v, h in "
        "zip(box_points(box), table.grid(box))}",
        "coeffs = {(v, 0): table.value(v) for v in box_points(box)}",
        "tests/test_series.py::test_hilbert_series_reads_one_grid"),
    "r1-signed-count-check-off": Mutant(
        _LATTHOM,
        "if signed.get(e, 0) != poly.coefficient((e,)):",
        "if False:",
        "tests/test_latthom.py"
        "::test_r1_structure_checks_the_polynomial_against_the_second_page"),
    "r1-u-kernel-check-off": Mutant(
        _LATTHOM,
        "if ker != (1 if v in e2_alpha else 0):",
        "if False:",
        "tests/test_latthom.py::test_r1_structure_checks_exactness"),
    "r1-u-cokernel-check-off": Mutant(
        _LATTHOM,
        "if coker != (1 if v + 1 in e2_a else 0):",
        "if False:",
        "tests/test_latthom.py::test_r1_structure_checks_exactness"),
    # the local field and its readers
    "field-table-strides": Mutant(
        _HILBERT,
        "shifts += [s + prod(shape[j + 1:]) for s in shifts]",
        "shifts += [s + table.strides[j] for s in shifts]",
        "tests/test_hilbert.py"
        "::test_local_field_is_cube_and_value_at_every_point"),
    "field-vectors-not-relative": Mutant(
        _HILBERT,
        "map(sub, map(grid.__getitem__, map(s.__add__, cells)), h)",
        "map(grid.__getitem__, map(s.__add__, cells))",
        "tests/test_hilbert.py"
        "::test_local_field_is_cube_and_value_at_every_point"),
    "semigroup-misses-last-direction": Mutant(
        _HILBERT,
        "for j in range(len(l))) for k in vectors]",
        "for j in range(len(l) - 1)) for k in vectors]",
        "tests/test_hilbert.py"
        "::test_semigroup_is_in_semigroup_at_every_point"),
    "field-piece-shift-wrong-sign": Mutant(
        _LATTHOM,
        "{q + 2 * (base - hv): group",
        "{q + 2 * (hv - base): group",
        "tests/test_latthom.py"
        "::test_graded_pieces_are_grv_homology_at_every_point"),
    "field-piece-unshifted": Mutant(
        _LATTHOM,
        """\
        pieces[v] = GradedGroup({q + 2 * (base - hv): group
                                 for q, group in piece.groups.items()})
""",
        """\
        pieces[v] = piece
""",
        "tests/test_latthom.py"
        "::test_graded_pieces_are_grv_homology_at_every_point"),
    "field-q-polynomial-unshifted": Mutant(
        _SERIES,
        "coeffs[(v, m + hv - base)] = c",
        "coeffs[(v, m)] = c",
        "tests/test_series.py"
        "::test_motivic_series_is_hv_polynomial_at_every_point"),
    "euler-first-points-only": Mutant(
        _LATTHOM,
        """\
        if chi[i] != poincare.coefficient(v):
            raise ConsistencyError(
                "Euler characteristic at %s does not match the "
                "alternating sum" % (v,))
""",
        """\
            if chi[i] != poincare.coefficient(v):
                raise ConsistencyError(
                    "Euler characteristic at %s does not match the "
                    "alternating sum" % (v,))
""",
        "tests/test_latthom.py::test_euler_check_compares_every_point"),
    # the factor 1 - t^s q^m and its three products
    "factor-drops-q-exponent": Mutant(
        _SERIES,
        "coeffs[(w, k + m)] = coeffs.get((w, k + m), 0) - c",
        "coeffs[(w, k)] = coeffs.get((w, k), 0) - c",
        "tests/test_series.py"
        "::test_times_one_minus_is_its_per_term_definition"),
    "factor-keeps-terms-past-the-box": Mutant(
        _SERIES,
        "if all(map(le, w, self.box)):",
        "if True:",
        "tests/test_series.py"
        "::test_times_one_minus_is_its_per_term_definition"),
    "motivic-passes-skip-last-axis": Mutant(
        _SERIES,
        "for i in range(r):\n        g = g.times_one_minus",
        "for i in range(r - 1):\n        g = g.times_one_minus",
        "tests/test_series.py"
        "::test_motivic_normalized_is_the_product_over_subsets"),
    "support-names-first-term": Mutant(
        _SERIES,
        "raise error(message.format(min(outside)[0]))",
        "raise error(message.format(outside[0][0]))",
        "tests/test_series.py"
        "::test_alexander_names_the_least_term_past_its_box"),
    "restriction-shift-wrong-row": Mutant(
        _SERIES,
        "shift = inv.pairwise[rho][:rho] + inv.pairwise[rho][rho + 1:]",
        "shift = inv.pairwise[rho - 1][:rho] "
        "+ inv.pairwise[rho - 1][rho + 1:]",
        "tests/test_series.py::test_restriction_all_corpus_pairs"),
    "verify-preflight-one-short": Mutant(
        "src/curvelat/verify.py",
        "need = max(inv.conductor) + 4",
        "need = max(inv.conductor) + 3",
        "tests/test_cli.py"
        "::test_verify_refuses_a_short_truncation_before_building_a_table"),
}

# Mutants that change no result, each with the reason; a run names them
# explicitly and expects them to survive the whole of tier-1.
EQUIVALENT = {
    # the oracle's elimination order within a block
    "oracle-blocks-ascending": Equivalent(
        _CURVE,
        "for col in reversed(b.columns(n)) if col]",
        "for col in b.columns(n) if col]",
        "a rank depends on no order of the vectors, and a node's block is "
        "its branch's columns in either order, so the walk shares the same "
        "blocks; the oracle takes highest e first only so that it does not "
        "replay the fill's insertions"),
    # the fill's row index (the oracle's is pinned by
    # test_h_oracle_ranks_the_nonzero_columns_of_the_definition)
    "fill-other-monomial-index": Equivalent(
        _HILBERT,
        "((a, d - a) for d in range(max(l))",
        "((d - a, a) for d in range(max(l))",
        "any bijection of the monomial index permutes the rows of every "
        "prefix matrix, which changes no rank"),
    "euler-first-point-test-loose": Equivalent(
        _LATTHOM,
        "if i == len(chi):",
        "if i >= len(chi):",
        "local_field numbers the vectors in the order of their first "
        "points, so a point's index is never above the number of vectors "
        "met before it, and the two tests agree at every point"),
}

# checks the table against the unmutated files, so it fails in every copy
_TABLE_TEST = "tests/test_mutants.py"

_FAILED = re.compile(r"^FAILED (.+?)(?: - .*)?$", re.MULTILINE)


def run(name, mutant):
    r"""
    Apply the mutant to a fresh copy of the checkout, run tier-1 there
    with -x, and return the id of the first failing test, or None when
    the mutant survived.
    """
    with tempfile.TemporaryDirectory(prefix="curvelat-mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "run-*"))
        target = os.path.join(copy, mutant.path)
        with open(target) as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            raise SystemExit("%s: old text does not occur exactly once in %s"
                             % (name, mutant.path))
        with open(target, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src")
        killer = getattr(mutant, "killer", None)
        for targets in ([[killer]] if killer else []) + [["tests", "bench"]]:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-rf",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 "--ignore", _TABLE_TEST] + targets,
                cwd=copy, env=env, capture_output=True, text=True)
            if proc.returncode:
                failed = _FAILED.search(proc.stdout)
                return (failed.group(1) if failed
                        else "pytest exit %d" % proc.returncode)
    return None


def main(names):
    unknown = [n for n in names if n not in MUTANTS and n not in EQUIVALENT]
    if unknown:
        raise SystemExit("unknown mutant: %s" % ", ".join(unknown))
    wrong = 0
    for name in names or MUTANTS:
        mutant = MUTANTS.get(name) or EQUIVALENT[name]
        killer = run(name, mutant)
        if name in EQUIVALENT:
            wrong += killer is not None
            print("survived  %s  (equivalent)" % name if killer is None
                  else "KILLED    %s  by %s, recorded as equivalent"
                  % (name, killer))
        elif killer is None:
            wrong += 1
            print("SURVIVED  %s" % name)
        else:
            note = "" if killer.startswith(mutant.killer) else (
                "  (expected %s)" % mutant.killer)
            print("killed    %s  by %s%s" % (name, killer, note))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
