#!/usr/bin/env python3
"""Mutation checks: each mutant is one exact edit of the code, and the
tests named with it must fail once it is made.

Usage, from anywhere:

    python3 scripts/mutants.py

For each mutant in MUTANTS, the script copies src/ and tests/ of this
checkout into a temporary directory, replaces the mutant's old text,
which must occur exactly once in its file, by its new text, and runs the
mutant's tests there with pytest.  A named test fails if any of its
cases fails (an id without parameters names all of them).  The mutant is
killed if every named test fails; it survives if one passes.  The script
prints one line per mutant and exits 1 if a mutant survives, its old
text is not found exactly once, or one of its tests does not run.
EQUIVALENT lists edits that change no result, each with the reason, so
that they are not proposed as mutants again; they are not run.
tests/test_source.py checks in the fast suite that every old text of
both lists still occurs exactly once; the mutant runs themselves (about
30 s on a 2-core box) are not part of it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # exact text, found once in path
    new: str
    tests: tuple  # pytest node ids, relative to the repository root, that must fail


class Equivalent(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str  # why no result can change


BULK, ORBITS, SPECTRAL = "src/cfstats/bulk.py", "src/cfstats/orbits.py", "src/cfstats/spectral.py"
STATS = "src/cfstats/stats.py"
TEST_BULK, TEST_STATS = "tests/test_bulk.py::", "tests/test_stats.py::"

MUTANTS = [
    # the Brun sweeps on sorted states and the Brun record walk
    Mutant(
        "brun-check-one-order", BULK,
        "    first = c1 == u2\n",
        "    first = c1 >= 0\n",
        (TEST_BULK + "TestVerifySweeps::test_brun", TEST_BULK + "TestVerifySweeps::test_reports_pinned",
         TEST_BULK + "TestVerifySweeps::test_matches_pure_python_composition"),
    ),
    Mutant(
        "brun-child-unsorted", BULK,
        "starts[u1] + rows[np.maximum(u2, r)] + np.minimum(u2, r)",
        "starts[u1] + rows[u2] + np.minimum(u2, r)",
        (TEST_BULK + "TestBrunSymmetry::test_sorted_dps_match_walks_from_both_orders",),
    ),
    Mutant(
        "brun-digit-cache-without-i", ORBITS,
        "        d = digit_of.get((i, j))\n        if d is None:\n            d = digit_of[i, j] = BrunDigit(i + 1, j)\n",
        "        d = digit_of.get(j)\n        if d is None:\n            d = digit_of[j] = BrunDigit(i + 1, j)\n",
        ("tests/test_orbits.py::TestEnumeration::test_brun_record_stream_pinned[brun3]",),
    ),
    Mutant(
        "brun-coprime-check-dropped", ORBITS,
        '    if math.gcd(*t) != 1:\n        raise ValueError("tuple is not coprime")\n',
        "",
        ("tests/test_orbits.py::TestBrunGcd::test_trajectory_digits_reject_bad_tuples[t2-not coprime]",),
    ),
    Mutant(
        "brun-sorted-check-dropped", ORBITS,
        '    if list(t) != sorted(t, reverse=True):\n        raise ValueError("tuple must be sorted descending")\n',
        "",
        ("tests/test_orbits.py::TestBrunGcd::test_trajectory_digits_reject_bad_tuples[t0-sorted descending]",),
    ),
    Mutant(
        "brun-lane-from-u2-0", BULK,
        "    return _decode(rows, m)[1] >= 1\n",
        "    return _decode(rows, m)[1] >= 0\n",
        (TEST_BULK + "TestTableAgreement::test_brun_matches_record_path",
         TEST_BULK + "TestTableAgreement::test_multidim_table_bytes_pinned"),
    ),
    # the JP choice table: the closure children and the child that the resolve reads
    Mutant(
        "jp-closures-skipped", BULK,
        "    ca, cb = (np_ == 0) & (a > 0), (nr == 0) & (b > 1)\n",
        "    ca = cb = np.zeros(len(p), bool)\n",
        (TEST_BULK + "TestJPChoiceTable::test_replay_reproduces_reference_strings",
         TEST_BULK + "TestJPChoiceTable::test_choice_table_bytes_pinned"),
    ),
    Mutant(
        "jp-child-row-offset", BULK,
        "        child = (a == b) * n + starts.take(p) + (np_ - 1) * (p + 1) + nr\n",
        "        child = (a == b) * n + starts.take(p) + np_ * (p + 1) + nr\n",
        (TEST_BULK + "TestJPChoiceTable::test_replay_reproduces_reference_strings",
         TEST_BULK + "TestJPChoiceTable::test_choice_table_bytes_pinned"),
    ),
    # the operator apply in slabs: one running sum in the order of the whole chunk
    Mutant(
        "apply-sums-each-slab", SPECTRAL,
        "            if total is not None:\n"
        "                slab = np.concatenate((total[None], slab))\n"
        "            total = slab.sum(axis=0)\n",
        "            total = slab.sum(axis=0) if total is None else total + slab.sum(axis=0)\n",
        ("tests/test_spectral.py::TestStencilReaders::test_apply_equals_the_stacked_reduction[gauss]",
         "tests/test_spectral.py::TestStencilReaders::test_apply_equals_the_stacked_reduction[brun2-slab7]",
         "tests/test_spectral.py::TestSpectralBytes::test_apply_bytes_pinned[gauss]"),
    ),
    # the induction of the DPs
    Mutant(
        "dp-wrong-child-offset", BULK,
        "    return j, first + rem\n",
        "    return j, first + rem + 1\n",
        (TEST_BULK + "TestGaussDP::test_matches_pure_python_euclid[targets0-60]",
         TEST_BULK + "TestVerifySweeps::test_gauss"),
    ),
    Mutant(
        "dp-weight-term-dropped", BULK,
        "        term += wsum.take(child)\n",
        "",
        (TEST_BULK + "TestVerifySweeps::test_gauss", TEST_BULK + "TestVerifySweeps::test_brun",
         TEST_BULK + "TestVerifySweeps::test_jp"),
    ),
    Mutant(
        "dp-gcd-mark-not-carried", BULK,
        "            row[k] = row.take(child) + (j == t)\n",
        "            row[k] = np.maximum(row.take(child), 0) + (j == t)\n",
        (TEST_BULK + "TestTableAgreement::test_gauss_matches_record_path",
         TEST_BULK + "TestTableAgreement::test_brun_matches_record_path",
         TEST_BULK + "TestTableAgreement::test_jp_matches_record_path"),
    ),
    # the decode of a DP position: an empty layer's start repeats the next one's
    Mutant(
        "decode-left", BULK,
        '    q = np.searchsorted(starts, k, "right") - 1\n',
        '    q = np.searchsorted(starts, k, "left") - 1\n',
        (TEST_BULK + "TestStateDecoding::test_layer_ends_decode_exactly[brun]",
         TEST_BULK + "TestStateDecoding::test_layer_ends_decode_exactly[gauss]",
         TEST_BULK + "TestStateDecoding::test_layer_ends_decode_exactly[jp]",
         TEST_BULK + "TestVerifySweeps::test_gauss"),
    ),
    # boundaries and defaults that no other test reaches
    Mutant(
        "verify-ok-bound-2-63", BULK,
        "self.max_matrix_entry < 2**62",
        "self.max_matrix_entry < 2**63",
        (TEST_BULK + "TestVerifySweeps::test_ok_needs_matrix_entries_below_2_62",),
    ),
    Mutant(
        "brun-default-target-2", BULK,
        "def brun2_ensemble_table(bound: int, targets=(1,),",
        "def brun2_ensemble_table(bound: int, targets=(2,),",
        (TEST_BULK + "TestTableAgreement::test_brun_default_targets",),
    ),
    Mutant(
        "dirichlet-t-sign", STATS,
        "logterm = -s * table.weights + table.counts.astype(np.float64) @ t",
        "logterm = -s * table.weights - table.counts.astype(np.float64) @ t",
        (TEST_STATS + "TestDirichlet::test_grows_with_t",),
    ),
    Mutant(
        "ldp-edge-counted", STATS,
        "dev = np.abs(n / Q - lambda_j) > eps",
        "dev = np.abs(n / Q - lambda_j) >= eps",
        (TEST_STATS + "TestLDP::test_deviation_at_eps_is_not_counted",),
    ),
    # the tail bars: the JP bar's first-moment term
    Mutant(
        "tail-bar-jp-shift", SPECTRAL,
        "z1 / (cap + 1) + z0",
        "z1 / (cap + 2) + z0",
        ("tests/test_spectral.py::TestLeadingEigenvalue::test_tail_bar_pinned[jp2]",),
    ),
    # the derivatives solve on the matrix they build: a second build changes no byte
    Mutant(
        "derivatives-second-build", SPECTRAL,
        "    res = _power_iteration(L, params, map_desc, G, tol=1e-13, max_iter=100_000)\n",
        "    res = leading_eigenvalue(params, map_desc, G=G, tol=1e-13)\n",
        ("tests/test_spectral.py::TestOneBuildPerSolve::test_derivatives_read_the_table_once",),
    ),
]

EQUIVALENT = [
    Equivalent(
        "ks-lattice-segment-closed", STATS,
        "k = np.nonzero((c > x[:-1]) & (c < x[1:]))[0]",
        "k = np.nonzero((c >= x[:-1]) & (c < x[1:]))[0]",
        "at c = x_k the segment gives F[k] + slope[k] * 0.0 = F[k] and the Gaussian CDF at x_k, "
        "the breakpoint term that the distance already holds",
    ),
    Equivalent(
        "jp-closures-one-fancy-or", BULK,
        "    for g, end in zip(groups, (sizes[0], sizes[0] + sizes[1], len(i))):\n"
        "        mask[:, g] |= bits[:, end - len(g) : end]\n",
        "    mask[:, i] |= bits\n",
        "a fancy |= keeps one write per repeated state, so a state with both closures loses "
        "some of bits 1-3; such a state has r and q divisible by p, a >= 1 and b >= 2, so its "
        "floor child ends at the origin with b >= 2, bit 0 is set at both flags, and the lowest "
        "set bit, its choice, does not change (tables identical at q <= 250)",
    ),
]


def outcomes(output: str) -> dict:
    """{node id: [outcome per case]} from the short test summary of pytest -rA."""
    out = {}
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            out.setdefault(rest.split(" - ")[0], []).append(word)
    return out


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' (old text not found exactly once) or
    'missing' (a named test did not run) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *mutant.tests]
        got = outcomes(subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True).stdout)
    cases = [[o for node, found in got.items() if node == t or node.startswith(t + "[") for o in found]
             for t in mutant.tests]
    if not all(cases):
        return "missing"
    return "killed" if all(set(c) - {"PASSED"} for c in cases) else "survived"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:9s} {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
