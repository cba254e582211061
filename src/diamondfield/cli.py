"""Command-line interface: reproducible CSV/JSON emitters for every result.

Frequencies and energies are exchanged in units of a; `--a` rescales the
dimensionful columns for display only.  Output is deterministic: identical
flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import DomainError

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


def _parse_grid(spec):
    """Grid spec: comma list '0.5,1,2' or range 'lo:hi:step' (inclusive)."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty grid")
    if ":" in spec:
        lo, hi, step = (float(x) for x in spec.split(":"))
        if step <= 0 or hi < lo:
            raise ValueError("bad range spec")
        n = int(round((hi - lo) / step))
        return [lo + i * step for i in range(n + 1)]
    return [float(x) for x in spec.split(",")]


def _parse_phi_list(spec):
    out = []
    for tok in spec.split(","):
        tok = tok.strip().lower()
        if tok.endswith("pi"):
            out.append(float(tok[:-2] or 1.0) * math.pi)
        else:
            out.append(float(tok))
    if not out:
        raise ValueError("empty phi list")
    return out


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
        "a": args.a,
        "format": args.format,
    }


def cmd_spectrum(args):
    from .bogoliubov import planck_occupation, thermal_occupation

    grid = _parse_grid("0.5,1.0,2.0" if args.grid is None else args.grid)
    meta = _base_meta(args, "spectrum")
    meta.update(sigma=args.sigma, tol=args.tol)
    rows = []
    worst = 0.0
    for om in grid:
        res = thermal_occupation(om, args.sigma)
        ref = planck_occupation(om, args.sigma)
        rel = abs(res.value - ref) / ref
        worst = max(worst, rel)
        rows.append((om * args.a, res.value, ref, rel))
    meta["max_rel_err"] = worst
    _emit(args.out, args.format, meta, ("omega0", "n_numeric", "n_planck", "rel_err"), rows)
    return EXIT_OK if worst <= args.tol else EXIT_NUMERIC


def cmd_correlations(args):
    from .correlations import (
        adjacent_moments_analytic,
        cross_moments,
        smeared_asymptotic_moment,
    )

    ns = _parse_grid("1,20" if args.n is None else args.n)
    if not all(x.is_integer() for x in ns):
        raise ValueError("diamond separations must be integers")
    ns = [int(x) for x in ns]
    freqs = _parse_grid("1.0,1.3" if args.grid is None else args.grid)
    meta = _base_meta(args, "correlations")
    meta.update(sigma=args.sigma, tol=args.tol)
    header = ("n", "Omega", "Omega_p", "re_bb", "im_bb", "re_bdag_b", "im_bdag_b", "method")
    rows = []
    for n in ns:
        if n < 1:
            raise DomainError("diamond separation must be >= 1")
        for om0 in freqs:
            for om1 in freqs:
                s0 = (om0, args.sigma)
                s1 = (om1, args.sigma)
                if n == 1:
                    cm = adjacent_moments_analytic(s0, s1)
                    method = "analytic"
                else:
                    cm = cross_moments(s0, s1, n, tol=args.tol)
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

    phis = _parse_phi_list("0,0.2pi" if args.phi is None else args.phi)
    grid = _parse_grid("0.5:1.5:0.01" if args.grid is None else args.grid)
    meta = _base_meta(args, "fig2")
    meta.update(
        omega0=1.0,
        sigma=args.sigma,
        caveat="x axis is the first-diamond central frequency; "
               "axes reconstructed from the described phenomenology",
    )
    header = ("phi", "omega1", "v_minus", "v_plus", "entangled")
    tab = fig2_sweep(phis, grid, omega0=1.0, sigma=args.sigma)
    rows = list(zip(*(tab[key].tolist() for key in header)))
    _emit(args.out, args.format, meta, header, rows)
    return EXIT_OK


def cmd_detector(args):
    from .detector import expected_rate, fit_temperature, identity_residual, response_rate

    grid = _parse_grid("0.5,1.0,2.0" if args.grid is None else args.grid)
    meta = _base_meta(args, "detector")
    meta.update(eps=args.eps, window=args.window)
    residual = identity_residual(np.linspace(-3.0, 3.0, 20))
    meta["identity_residual"] = residual
    rows = []
    pairs = []
    for E in grid:
        up = response_rate(E, args.window, args.eps)
        dn = response_rate(-E, args.window, args.eps)
        up_half = response_rate(E, args.window, args.eps / 2.0)
        consistent = abs(up.value - up_half.value) <= 0.02 * abs(up.value)
        pairs.append((up.value, dn.value))
        rows.append((E, up.value, up.value / dn.value, expected_rate(E), consistent))
    T_fit = fit_temperature(grid, pairs)
    meta["fitted_T"] = T_fit
    rowsT = [row + (T_fit,) for row in rows]
    _emit(args.out, args.format, meta,
          ("E", "rate", "balance_ratio", "rate_thermal", "eps_consistent", "fitted_T"), rowsT)
    ok = residual <= 1e-10 and abs(T_fit - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)
    return EXIT_OK if ok else EXIT_NUMERIC


def _validate_checks():
    """(name, callable) pairs; each returns (ok, detail)."""
    import numpy as _np

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
            rhs = _np.exp(z) * kummer_m(1.0 - 1j * om, 2.0, -z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst < 1e-11, f"max identity residual {worst:.2e}"

    def geometry_roundtrip():
        from .geometry import to_diamond, to_minkowski, MinkowskiEvent

        ev = MinkowskiEvent(t=0.3, x=0.2, y=0.1, z=-0.4)
        d = to_diamond(ev)
        back = to_minkowski(d)
        err = max(abs(back.t - ev.t), abs(back.x - ev.x), abs(back.y - ev.y), abs(back.z - ev.z))
        return err < 1e-9, f"roundtrip error {err:.2e}"

    def mode_norms():
        from .modes import gaussian_packet, kg_product

        worst = 0.0
        for kind in ("plane", "diamond", "exterior"):
            p = gaussian_packet(kind, 1.0)
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

        r = identity_residual(_np.linspace(-3.0, 3.0, 20))
        return r < 1e-10, f"max residual {r:.2e}"

    def covariance_physical():
        from .gaussian import WavepacketSpec, build_covariance

        cov = build_covariance([WavepacketSpec(0, 1.0), WavepacketSpec(1, 1.0)])
        return cov.min_symplectic_eig >= -1e-9, f"min eig {cov.min_symplectic_eig:.2e}"

    return [
        ("specfun identities", specfun_identities),
        ("geometry roundtrip", geometry_roundtrip),
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


def build_parser():
    p = argparse.ArgumentParser(
        prog="diamondfield",
        description="Thermal spectra, correlations and detector response for diamond modes",
    )
    p.add_argument("--a", type=float, default=1.0, help="diamond scale for display units")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol=True, sigma=True):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if tol:
            sp.add_argument("--tol", type=float, default=0.02)
        sp.add_argument("--grid", default=None, help="comma list or lo:hi:step")
        if sigma:
            sp.add_argument("--sigma", type=float, default=0.02)

    sp = sub.add_parser("spectrum", help="smeared vacuum occupation vs Planck")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("correlations", help="cross-diamond second moments")
    common(sp)
    sp.add_argument("--n", default=None, help="comma list of diamond separations")
    sp.set_defaults(func=cmd_correlations)

    sp = sub.add_parser("fig2", help="joint-quadrature variance sweep")
    common(sp, tol=False)
    sp.add_argument("--phi", default=None, help="comma list, 'pi' suffix allowed")
    sp.set_defaults(func=cmd_fig2)

    sp = sub.add_parser("detector", help="energy-scaled detector response")
    common(sp, tol=False, sigma=False)
    sp.add_argument("--eps", type=float, default=1e-8)
    sp.add_argument("--window", type=float, default=80.0)
    sp.set_defaults(func=cmd_detector)

    sp = sub.add_parser("validate", help="run the invariant suite")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.a <= 0.0 or getattr(args, "tol", 1.0) <= 0.0:
        parser.error("scales and tolerances must be positive")
    try:
        return args.func(args)
    except (ValueError, DomainError) as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
    except Exception as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
