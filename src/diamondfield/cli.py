"""Command-line interface: reproducible CSV/JSON emitters for every result.

Frequencies and energies are exchanged in units of a.  Output is
deterministic: identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import DomainError
from .modes import DEFAULT_SIGMA

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

_MAX_RANGE_POINTS = 100_000  # a 'lo:hi:step' range is counted before it is built


def _parse_grid(spec):
    """Grid spec: comma list '0.5,1,2' or range 'lo:hi:step' (lo + i step up to hi inclusive)."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty grid")
    if ":" in spec:
        lo, hi, step = (float(x) for x in spec.split(":"))
        if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
            raise ValueError("bad range spec")
        n = (hi - lo) / step
        n += 1e-9 * max(1.0, n)  # so that the quotient (1.5 - 0.5)/0.01 = 99.99999999999999 counts 100 steps
        if not n < _MAX_RANGE_POINTS:  # also catches an overflow to inf
            raise ValueError(f"range has {n + 1:.6g} points, more than {_MAX_RANGE_POINTS}")
        return [min(lo + i * step, hi) for i in range(math.floor(n) + 1)]  # not past hi by a rounding either
    return [float(x) for x in spec.split(",")]


def _parse_phi_list(spec):
    """Comma list of phases; a 'pi' suffix multiplies by pi ('pi', '-pi' and
    '+pi' read as +-1 pi)."""
    def phase(tok):
        if not tok.endswith("pi"):
            return float(tok)
        coef = tok[:-2]
        return float(coef + "1" if coef in ("", "+", "-") else coef) * math.pi
    return [phase(tok.strip().lower()) for tok in spec.split(",")]


def _checked(parse, ok=math.isfinite, need="finite"):
    """argparse type: parse, then ok on every value; argparse's error names the flag."""
    def convert(text):
        try:
            values = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        if not all(map(ok, np.atleast_1d(values))):
            raise argparse.ArgumentTypeError(f"{text!r}: must be {need}")
        return values
    return convert


_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "finite and > 0")


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(path, fmt, meta, header, rows):
    if fmt == "json":
        payload = {
            "meta": meta,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in sorted(meta.items())]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _base_meta(args, command):
    return {
        "tool": "diamondfield",
        "version": __version__,
        "command": command,
        "format": args.format,
    }


def cmd_spectrum(args):
    from .bogoliubov import planck_occupation, thermal_occupation

    meta = _base_meta(args, "spectrum")
    meta.update(sigma=args.sigma, tol=args.tol)
    rows = []
    worst = 0.0
    for om in args.grid:
        res = thermal_occupation(om, args.sigma)
        ref = planck_occupation(om, args.sigma)
        rel = abs(res.value - ref) / ref
        worst = max(worst, rel)
        rows.append((om, res.value, ref, rel))
    meta["max_rel_err"] = worst
    _emit(args.out, args.format, meta, ("omega0", "n_numeric", "n_planck", "rel_err"), rows)
    return EXIT_OK if worst <= args.tol else EXIT_NUMERIC


def cmd_correlations(args):
    from .correlations import (
        adjacent_moments_analytic,
        cross_moments,
        smeared_asymptotic_moment,
    )

    meta = _base_meta(args, "correlations")
    meta.update(sigma=args.sigma)
    header = ("n", "Omega", "Omega_p", "re_bb", "im_bb", "re_bdag_b", "im_bdag_b", "method")
    rows = []
    for n in map(int, args.n):
        for om0 in args.grid:
            for om1 in args.grid:
                s0 = (om0, args.sigma)
                s1 = (om1, args.sigma)
                if n == 1:
                    cm = adjacent_moments_analytic(s0, s1)
                    method = "analytic"
                else:
                    cm = cross_moments(s0, s1, n)
                    method = "numeric"
                rows.append((n, om0, om1, cm.m_minus.real, cm.m_minus.imag,
                             cm.m_plus.real, cm.m_plus.imag, method))
                if n >= 10:
                    mm, mp = smeared_asymptotic_moment(s0, s1, n)
                    rows.append((n, om0, om1, mm, 0.0, mp, 0.0, "asymptotic"))
    _emit(args.out, args.format, meta, header, rows)
    return EXIT_OK


def cmd_fig2(args):
    from .gaussian import fig2_sweep

    meta = _base_meta(args, "fig2")
    meta.update(
        omega0=1.0,
        sigma=args.sigma,
        caveat="x axis is the first-diamond central frequency; "
               "axes reconstructed from the described phenomenology",
    )
    header = ("phi", "omega1", "v_minus", "v_plus", "entangled")
    tab = fig2_sweep(args.phi, args.grid, sigma=args.sigma)
    rows = list(zip(*(tab[key].tolist() for key in header)))
    _emit(args.out, args.format, meta, header, rows)
    return EXIT_OK


def cmd_detector(args):
    from .detector import expected_rate, fit_temperature, identity_residual, response_rates

    meta = _base_meta(args, "detector")
    meta.update(window=args.window)
    residual = identity_residual(np.linspace(-3.0, 3.0, 20))
    meta["identity_residual"] = residual
    rates = response_rates(args.grid, args.window)
    for E, pair in zip(args.grid, rates):
        for e, r in zip((E, -E), pair):  # the fit needs both rates resolved
            if not r.value > r.est_error:
                raise DomainError(f"the detector rate at E={e:g} is {r.value:.3g}, not above its "
                                  f"est_error {r.est_error:.3g}: unresolved at window {args.window:g}")
    pairs = [(up.value, dn.value) for up, dn in rates]
    T_fit = fit_temperature(args.grid, pairs)
    meta["fitted_T"] = T_fit
    rows = [(E, up, up / dn, expected_rate(E), T_fit) for E, (up, dn) in zip(args.grid, pairs)]
    _emit(args.out, args.format, meta, ("E", "rate", "balance_ratio", "rate_thermal", "fitted_T"), rows)
    ok = residual <= 1e-10 and abs(T_fit - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)
    return EXIT_OK if ok else EXIT_NUMERIC


def _validate_checks():
    """(name, callable) pairs; each returns (ok, detail)."""
    def specfun_identities():
        from .specfun import gamma_complex, kummer_m

        zs = [0.3 + 1j, 2.5 - 3j, -1.3 + 0.7j]
        worst = 0.0
        for z in zs:
            lhs = gamma_complex(z + 1.0)
            rhs = z * gamma_complex(z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        for om in (0.5, 2.0):
            z = 3.0j
            lhs = kummer_m(1 + 1j * om, 2.0, z)
            rhs = np.exp(z) * kummer_m(1.0 - 1j * om, 2.0, -z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst < 1e-11, f"max identity residual {worst:.2e}"

    def mode_norms():
        from .modes import Packet, kg_product

        worst = 0.0
        for kind in ("plane", "diamond", "exterior"):
            p = Packet(0, 1.0, kind=kind)
            worst = max(worst, abs(kg_product(p, p).value - 1.0))
        return worst < 1e-7, f"max norm deviation {worst:.2e}"

    def coefficient_oracle():
        from .bogoliubov import ab_coefficients, ab_numeric

        A, B = ab_coefficients(1.0, 1.5)
        An, Bn, _ = ab_numeric(1.0, 1.5)
        rel = max(abs(A - An) / abs(A), abs(B - Bn) / abs(B))
        return rel < 1e-6, f"closed vs quadrature {rel:.2e}"

    def adjacent_oracle():
        from .correlations import alpha_beta_adjacent, alpha_beta_numeric

        al, be = alpha_beta_adjacent(1.0, 1.3)
        aln, ben, _ = alpha_beta_numeric(1.0, 1.3)
        rel = max(abs(al - aln) / abs(al), abs(be - ben) / abs(be))
        return rel < 1e-4, f"closed vs quadrature {rel:.2e}"

    def wightman_identity():
        from .detector import identity_residual

        r = identity_residual(np.linspace(-3.0, 3.0, 20))
        return r < 1e-10, f"max residual {r:.2e}"

    def covariance_physical():
        from .gaussian import WavepacketSpec, build_covariance

        cov = build_covariance([WavepacketSpec(0, 1.0), WavepacketSpec(1, 1.0)])
        return cov.min_symplectic_eig >= -1e-9, f"min eig {cov.min_symplectic_eig:.2e}"

    return [
        ("specfun identities", specfun_identities),
        ("mode norms", mode_norms),
        ("coefficient oracle", coefficient_oracle),
        ("adjacent oracle", adjacent_oracle),
        ("wightman identity", wightman_identity),
        ("covariance physical", covariance_physical),
    ]


def cmd_validate(args):
    import time

    t0 = time.time()
    failures = 0
    for name, check in _validate_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crash counts as a failure, keep going
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "pass" if ok else "FAIL"
        print(f"{status:4s}  {name:24s} {detail}")
        failures += 0 if ok else 1
    print(f"# elapsed={time.time() - t0:.1f}s failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


@functools.cache  # one parser per process; each parse_args fills a fresh namespace
def build_parser():
    p = argparse.ArgumentParser(
        prog="diamondfield",
        description="Thermal spectra, correlations and detector response for diamond modes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid, sigma=True):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--grid", type=_checked(_parse_grid), default=grid,
                        help="comma list or lo:hi:step")
        if sigma:
            sp.add_argument("--sigma", type=_POSITIVE, default=DEFAULT_SIGMA)

    sp = sub.add_parser("spectrum", help="smeared vacuum occupation vs Planck")
    common(sp, "0.5,1.0,2.0")
    sp.add_argument("--tol", type=_POSITIVE, default=0.02, help="rel_err gate on the exit code")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("correlations", help="cross-diamond second moments")
    common(sp, "1.0,1.3")
    sp.add_argument("--n", type=_checked(_parse_grid, lambda x: x >= 1 and x.is_integer(),
                                         "integers >= 1"), default="1,20",
                    help="comma list of diamond separations")
    sp.set_defaults(func=cmd_correlations)

    sp = sub.add_parser("fig2", help="joint-quadrature variance sweep")
    common(sp, "0.5:1.5:0.01")
    sp.add_argument("--phi", type=_checked(_parse_phi_list), default="0,0.2pi",
                    help="comma list, 'pi' suffix allowed")
    sp.set_defaults(func=cmd_fig2)

    sp = sub.add_parser("detector", help="energy-scaled detector response")
    common(sp, "0.5,1.0,2.0", sigma=False)
    sp.add_argument("--window", type=_POSITIVE, default=80.0)
    sp.set_defaults(func=cmd_detector)

    sp = sub.add_parser("validate", help="run the invariant suite")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)  # every numeric flag is checked here
    try:
        return args.func(args)
    except (ValueError, DomainError) as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
    except Exception as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
