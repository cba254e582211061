"""The benchmark's workloads: inputs drawn from a seed, and the checks that
judge each operation outside its timed span.

Every operation is a CLI command run in-process through
`diamondfield.cli.main(argv)` with stdout captured.  A batch is one
workload's full list of operations; `make_batch(seed, index)` returns the
same list for the same arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SPECTRUM_GATE = 0.02  # the CLI's own default --tol for `spectrum`
FIG2_ROUTE_GATE = 1e-5  # tests/test_gaussian.py::test_adjacent_routes_agree
ORACLE_RATIO = (0.9, 1.1)  # numeric / asymptotic re<b0 bN> for N >= 10
DETECTOR_T_GATE = 0.02  # the CLI's own fitted-temperature gate

SRC = Path(__file__).resolve().parent.parent / "src"
# V_-(phi) at ω1 = 1.00 from the pole-free KG route, for phi = 0 and 0.2π
KG_REFERENCE = """
import json, math
from diamondfield.gaussian import WavepacketSpec, build_covariance, joint_variance
cov = build_covariance([WavepacketSpec(0, 1.0), WavepacketSpec(1, 1.0)], adjacent="kg")
print(json.dumps([joint_variance(cov, 0, 1, -1, phi) for phi in (0.0, 0.2 * math.pi)]))
"""


def parse_csv(text):
    """(meta dict, rows as dicts) from the CLI's CSV with '# key=value' preamble."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        elif line:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _rng(seed, index):
    return np.random.default_rng([seed, index])


class Workload:
    name = ""
    lazy_imports = ()  # modules an operation imports on first use

    def make_batch(self, seed, index):
        raise NotImplementedError

    def check(self, ops, results):
        """(failed flag per op, worst relative deviation from the reference)."""
        raise NotImplementedError


class Spectrum(Workload):
    """One `spectrum --grid 1.00`; the gate is the CLI's 2% exit code and the
    reference its own rel_err against planck_occupation."""

    name = "spectrum"

    def make_batch(self, seed, index):
        # Ω0 is fixed: rel_err moves 2.6x between Ω0 = 0.93 and 1.07, so a
        # drawn Ω0 would make max_rel_err vary by seed; one call takes ~25 s,
        # so a second one per run does not fit the run budget.
        return [["spectrum", "--grid", "1.00"]]

    def check(self, ops, results):
        failed, worst = [], 0.0
        for argv, (code, out) in zip(ops, results):
            ok = code == 0
            try:
                _, rows = parse_csv(out)
                rel = float(rows[0]["rel_err"])
                ok = ok and math.isfinite(rel) and rel <= SPECTRUM_GATE
                worst = max(worst, rel)
            except (IndexError, KeyError, ValueError):
                ok = False
            failed.append(not ok)
        return failed, worst


class Fig2(Workload):
    """101 `fig2 --grid ω1` calls, ω1 = 0.50..1.50, in seed-shuffled order.
    Sweep gates from tests/test_acceptance.py; the value at the gate point
    ω1 = 1.00 is compared with the independent KG-quadrature route."""

    name = "fig2"
    GRID = [f"{0.5 + 0.01 * i:.2f}" for i in range(101)]

    def __init__(self):
        self._kg_ref = None

    def make_batch(self, seed, index):
        order = _rng(seed, index).permutation(len(self.GRID))
        return [["fig2", "--grid", self.GRID[i]] for i in order]

    def kg_reference(self):
        """{phi: V_-(phi)} at ω1 = 1.00 from the pole-free KG route.  It runs
        in a child process, so its memory stays out of peak_rss_mb and its
        KG calls out of the traced layers."""
        if self._kg_ref is None:
            path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", KG_REFERENCE], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            v0, v2 = json.loads(proc.stdout.strip().splitlines()[-1])
            self._kg_ref = {0.0: v0, 0.2 * math.pi: v2}
        return self._kg_ref

    def check(self, ops, results):
        failed, sweep, worst = [], [], 0.0
        for argv, (code, out) in zip(ops, results):
            ok = code == 0
            try:
                _, rows = parse_csv(out)
                for r in rows:
                    sweep.append((float(r["phi"]), float(r["omega1"]), float(r["v_minus"])))
                ok = ok and len(rows) == 2
            except (KeyError, ValueError):
                ok = False
            failed.append(not ok)
        phi0 = sorted((om, v) for phi, om, v in sweep if phi == 0.0)
        phi2 = sorted((om, v) for phi, om, v in sweep if math.isclose(phi, 0.2 * math.pi, rel_tol=1e-9))
        gates = len(phi0) == len(phi2) == len(self.GRID)
        if gates:
            at1 = dict(phi0)[1.0]
            gates = (at1 < 1.0
                     and abs(min(phi0, key=lambda p: p[1])[0] - 1.0) <= 0.011
                     and abs(min(phi2, key=lambda p: p[1])[0] - 1.0) > 0.011)
            ref = self.kg_reference()
            for phi, pts in ((0.0, phi0), (0.2 * math.pi, phi2)):
                rel = abs(dict(pts)[1.0] - ref[phi]) / abs(ref[phi])
                worst = max(worst, rel)
                gates = gates and rel <= FIG2_ROUTE_GATE
        if not gates:  # a sweep gate judges every operation of the sweep
            failed = [True] * len(failed)
        return failed, worst


class Oracle(Workload):
    """30 distinct `correlations --n N --grid 1.0` (KG engine), then one
    `validate` and one `detector`."""

    name = "oracle"
    lazy_imports = ("scipy.special",)

    def make_batch(self, seed, index):
        rng = _rng(seed, index)
        # N = 10 is the smallest separation the asymptotic gate certifies and
        # its hardest case; it is always in, the other 29 are drawn.
        rest = [n for n in range(2, 41) if n != 10]
        ns = [10] + [int(n) for n in rng.choice(rest, 29, replace=False)]
        ns = [ns[i] for i in rng.permutation(len(ns))]
        return [["correlations", "--n", str(n), "--grid", "1.0"] for n in ns] + [["validate"], ["detector"]]

    def check(self, ops, results):
        failed, worst = [], 0.0
        for argv, (code, out) in zip(ops, results):
            ok = code == 0
            try:
                if argv[0] == "correlations":
                    _, rows = parse_csv(out)
                    num = [r for r in rows if r["method"] == "numeric"]
                    asym = [r for r in rows if r["method"] == "asymptotic"]
                    vals = [float(num[0][k]) for k in ("re_bb", "im_bb", "re_bdag_b", "im_bdag_b")]
                    ok = ok and all(math.isfinite(v) for v in vals)
                    if int(argv[2]) >= 10:
                        ratio = vals[0] / float(asym[0]["re_bb"])
                        ok = ok and ORACLE_RATIO[0] <= ratio <= ORACLE_RATIO[1]
                        worst = max(worst, abs(ratio - 1.0))
                elif argv[0] == "validate":
                    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
                    ok = ok and len(lines) > 0 and all(ln.startswith("pass") for ln in lines)
                else:
                    meta, _ = parse_csv(out)
                    t_ref = 1.0 / (2.0 * math.pi)
                    rel = abs(float(meta["fitted_T"]) - t_ref) / t_ref
                    ok = ok and rel <= DETECTOR_T_GATE
                    worst = max(worst, rel)
            except (IndexError, KeyError, ValueError, ZeroDivisionError):
                ok = False
            failed.append(not ok)
        return failed, worst


WORKLOADS = {w.name: w for w in (Spectrum, Fig2, Oracle)}


def run_op(argv, cli):
    """Run one CLI command in-process; (exit code, captured stdout).

    `cli.main` is looked up on every call so that a traced pass sees the
    wrapped function."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed run
            code = 1
    return code, out.getvalue()
