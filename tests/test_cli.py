import importlib
import inspect
import json
import math
import os
import pkgutil
import time

import pytest

import diamondfield
from diamondfield import cli, detector
from diamondfield.cli import main


# bounded-child setup: code(argv) is main's exit code, also when argparse exits
_EXIT_CODE = ("from diamondfield.cli import main\n"
              "def code(argv):\n"
              "    try:\n"
              "        return main(argv)\n"
              "    except SystemExit as exc:\n"
              "        return exc.code")


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestSpectrum:
    def test_default_run(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--grid", "1.0")
        assert code == 0
        lines = text.strip().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "omega0,n_numeric,n_planck,rel_err"
        row = lines[-1].split(",")
        assert float(row[3]) <= 0.02

    def test_json_schema(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--grid", "1.0", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"meta", "rows"}
        assert doc["meta"]["command"] == "spectrum"
        assert doc["rows"][0]["rel_err"] <= 0.02

    def test_default_rows_agree_with_planck(self, tmp_path):
        code, text = run(tmp_path, "spectrum")
        assert code == 0
        rows = [ln.split(",") for ln in text.strip().splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 3
        assert all(float(row[3]) < 1e-7 for row in rows)

    def test_empty_grid_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--grid", ""])
        assert exc.value.code == 2

    def test_high_packet_usage_error(self, capsys):
        # the tail's series terms underflow to 0 here; the run printed 4.5e-3
        # against a Planck value of 0 and exited 1
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--grid", "150"])
        assert exc.value.code == 2
        assert "kappa_split" in capsys.readouterr().err

    def test_too_narrow_packet_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--grid", "1.0", "--sigma", "0.005"])
        assert exc.value.code == 2
        assert "sigma" in capsys.readouterr().err


class TestCorrelations:
    def test_high_frequencies_print_zeros(self, tmp_path):
        # the sinh overflow ended this run in {"error": "OverflowError"}
        code, text = run(tmp_path, "correlations", "--grid", "300", "--n", "20")
        assert code == 0
        rows = [ln.split(",") for ln in text.strip().splitlines() if not ln.startswith("#")][1:]
        assert [r[-1] for r in rows] == ["numeric", "asymptotic"]
        assert all(float(x) == 0.0 for r in rows for x in r[3:7])

    def test_methods_column(self, tmp_path):
        code, text = run(tmp_path, "correlations", "--grid", "1.0,1.3", "--n", "1,20")
        assert code == 0
        rows = [ln for ln in text.strip().splitlines() if not ln.startswith("#")][1:]
        methods = {r.split(",")[-1] for r in rows}
        assert methods == {"analytic", "numeric", "asymptotic"}

    def test_bad_n_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["correlations", "--n", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["2.7", "0.5", "1,1.5"])
    def test_fractional_n_rejected(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["correlations", "--n", n])
        assert exc.value.code == 2
        assert "integers" in capsys.readouterr().err


class TestFig2:
    def test_blocks_and_dip(self, tmp_path):
        code, text = run(tmp_path, "fig2", "--grid", "0.98:1.02:0.02")
        assert code == 0
        rows = [ln.split(",") for ln in text.strip().splitlines() if not ln.startswith("#")][1:]
        phis = {r[0] for r in rows}
        assert len(phis) == 2  # phi = 0 and phi = 0.2 pi blocks
        at_center = [r for r in rows if r[0] == "0" and abs(float(r[1]) - 1.0) < 1e-9]
        assert float(at_center[0][2]) < 1.0

    def test_deterministic(self, tmp_path):
        args = ("fig2", "--grid", "0.95:1.05:0.05")
        _, text1 = run(tmp_path, *args)
        _, text2 = run(tmp_path, *args)
        assert text1 == text2


class TestDetector:
    def test_default_run(self, tmp_path):
        code, text = run(tmp_path, "detector")
        assert code == 0
        lines = text.strip().splitlines()
        meta = dict(
            ln[2:].split("=", 1) for ln in lines if ln.startswith("# ")
        )
        assert float(meta["identity_residual"]) <= 1e-10
        assert "eps" not in meta  # the rate is the eps -> 0 limit
        header, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        assert header == ["E", "rate", "balance_ratio", "rate_thermal", "fitted_T"]
        assert all(float(r[1]) > float(r[3]) > 0.0 for r in rows)  # r is convex: the smear lies above it

    def test_negative_energies_fit(self, tmp_path):
        # rate pairs at E < 0 are fitted as Boltzmann exponents, not occupations
        code, text = run(tmp_path, "detector", "--grid=-1,-0.5,2")
        assert code == 0
        meta = dict(ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("# "))
        assert abs(float(meta["fitted_T"]) - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)

    @pytest.mark.parametrize("window", ["120", "1000"])
    def test_long_windows(self, tmp_path, window):
        # 1/sinh^2 of the kernel overflowed beyond a window of about 104
        code, text = run(tmp_path, "detector", "--window", window)
        assert code == 0
        meta = dict(ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("# "))
        assert abs(float(meta["fitted_T"]) - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)

    def test_one_integral_per_energy_and_eps(self, tmp_path, monkeypatch):
        # one integral per energy, 3 for the default grid, where the time-domain
        # route ran one at eps and one at eps / 2 on 2,141 nodes each
        calls, integrate = [], detector.integrate_trapezoid
        monkeypatch.setattr(detector, "integrate_trapezoid",
                            lambda *a, **k: calls.append(a[1:3]) or integrate(*a, **k))
        code, _ = run(tmp_path, "detector")
        assert code == 0 and len(calls) == 3

    @pytest.mark.parametrize("grid", ["5,10,30", "0.5:20:0.5"])
    def test_small_excitation_rates_resolve(self, tmp_path, grid):
        # the time-domain route lost the rates past E = 4 at a window of 80
        # (-9.2e-14 at E = 5, against 1.81e-14) and exited 2 as unresolved
        code, text = run(tmp_path, "detector", "--grid", grid)
        assert code == 0
        meta = dict(ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("# "))
        assert abs(float(meta["fitted_T"]) - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)

    def test_unresolved_rates_rejected(self, capsys):
        # the excitation rate at E = 200 underflows to 0, not above its
        # est_error; the fit took the log of a non-positive ratio and printed
        # fitted_T=nan after a numpy RuntimeWarning
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["detector", "--grid", "0.5,200"])
        assert exc.value.code == 2 and time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "rate at E=200 is 0" in err and "not above its est_error" in err

    @pytest.mark.parametrize("argv", [["--grid", "1e4"], ["--window", "1e6"], ["--grid", "0.5,2000"]])
    def test_oversized_quadrature_fails_fast(self, argv, bounded):
        # the time-domain route asked for first trapezoid calls of 7.1M, 26.7M
        # and 1.43M nodes and exited 1; the smear's grid depends on the window
        # alone (75 nodes here): the window 1e6 fits T (exit 0), and the
        # excitation rates at E = 1e4 and 2000 underflow, unresolved (exit 2)
        code = 0 if "--window" in argv else 2
        got, seconds, err = bounded(_EXIT_CODE, f"code({['detector', *argv, '--out', os.devnull]!r})", timeout=10.0)
        assert got == repr(code) and seconds < 1.0
        assert "Warning" not in err


class TestEdgeInputs:
    @pytest.mark.parametrize("argv, code", [
        (["detector", "--window", "1e-160"], 2),
        (["detector", "--window", "1e-300"], 2),
        (["detector", "--window", "1e-20"], 2),
        (["fig2", "--grid", "1e6"], 0),
        (["spectrum", "--grid", "1e300"], 2),
        (["spectrum", "--grid", "1", "--sigma", "1e100"], 2),
        (["spectrum", "--grid", "1", "--sigma", "1e300"], 2),
        (["correlations", "--n", "2", "--grid", "1", "--sigma", "1e300"], 2),
        (["correlations", "--n", "1", "--grid", "1", "--sigma", "1e-17"], 2),
        (["fig2", "--grid", "1e100", "--sigma", "1e-10"], 2),
        (["detector", "--window", "0.04"], 2),
        (["detector", "--grid", "1e301"], 2),
    ])
    def test_exit_code_without_warnings(self, argv, code, bounded):
        # the first windows exited 1 with a ZeroDivisionError in the rate or
        # in the fit of balance ratios that all round to 1; fig2 at omega1 =
        # 1e6 printed an overflow warning of the Planck factor; the spectrum
        # warned of inf * 0 in the log-kappa tail or exited 1 with an
        # OverflowError of sigma**2, as did correlations; omega0/sigma = 1e17
        # printed re_bb = 0.2073 for 0.0216 and 1e110 ended fig2 in an
        # OverflowError of the lattice indices; the detector window 0.04 and
        # energy 1e301 lie outside the rate's domain
        got, seconds, err = bounded(_EXIT_CODE, f"code({[*argv, '--out', os.devnull]!r})")
        assert got == repr(code) and seconds < 1.0
        assert "Warning" not in err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--tol", "nan"],
        ["fig2", "--sigma", "inf"],
        ["spectrum", "--grid", "1.0", "--sigma", "nan"],
        ["correlations", "--n", "1", "--grid", "1.0", "--sigma", "inf"],
        ["fig2", "--phi", "nan"],
        ["detector", "--window", "inf"],
        ["detector", "--window", "nan"],
        ["detector", "--grid", "nan"],
        ["detector", "--window", "-1"],
        ["detector", "--grid", "1:inf:1"],
        ["detector", "--window", "0"],
        ["spectrum", "--grid", "0:1e9:1e-9"],
        ["correlations", "--n", "1:1e12:1"],
        ["detector", "--grid", "0:1e300:1e-300"],
        ["correlations", "--grid", "0.8:1.2:0.05", "--n", "20,0"],
    ])
    def test_usage_error(self, argv, capsys):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert time.perf_counter() - t0 < 1.0
        flag = [tok for tok in argv if tok.startswith("--")][-1]
        assert f"argument {flag}:" in capsys.readouterr().err  # the message names the flag


class TestValidate:
    def test_exit_zero(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        # one line per check, each starting with pass (a benchmark check reads that prefix)
        checks = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert [ln[:4] for ln in checks] == ["pass"] * 6
        assert [ln[6:30].rstrip() for ln in checks] == [
            "specfun identities", "mode norms", "coefficient oracle",
            "adjacent oracle", "wightman identity", "covariance physical"]


class TestParser:
    def test_built_once_and_flags_do_not_leak(self, capsys):
        grid = ["--grid", "0.98:1.02:0.02"]
        main(["fig2", *grid])
        fresh = capsys.readouterr().out
        cli.build_parser.cache_clear()
        outs = []
        for argv in (["fig2", "--phi", "0", *grid], ["fig2", *grid]) * 3:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert cli.build_parser.cache_info().misses == 1
        # --phi 0 gives one block; the default call after it gives both again
        assert outs[1::2] == [fresh] * 3
        assert all(len(out.splitlines()) < len(fresh.splitlines()) for out in outs[::2])

    def test_phi_bare_sign_before_pi(self):
        assert cli._checked(cli._parse_phi_list)("-pi,+pi") == [-math.pi, math.pi]
        assert cli._checked(cli._parse_phi_list)("pi,-0.5pi") == [math.pi, -0.5 * math.pi]


class TestOptions:
    """Each quadrature reads one module constant for its tolerance, so no
    caller can ask for an unreachable one; tol means one thing, the
    spectrum's rel_err gate."""

    @staticmethod
    def _public_callables():
        for info in pkgutil.iter_modules(diamondfield.__path__):
            if info.name.startswith("_"):
                continue
            mod = importlib.import_module(f"diamondfield.{info.name}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{mod.__name__}.{name}", obj
                elif inspect.isclass(obj):
                    for meth, fn in inspect.getmembers(obj, inspect.isfunction):
                        if not meth.startswith("_") or meth == "__init__":
                            yield f"{mod.__name__}.{name}.{meth}", fn

    def test_no_public_tolerance_parameters(self):
        names = dict(self._public_callables())
        assert "diamondfield.bogoliubov.thermal_occupation" in names
        assert "diamondfield.modes.Profile.nodes" in names
        knobs = [f"{name}({p})" for name, fn in names.items()
                 for p in inspect.signature(fn).parameters if p in ("tol", "max_doublings")]
        assert knobs == []

    def test_public_names_resolve(self):
        names = diamondfield.__all__
        assert names == [
            "ConvergenceError", "DomainError", "PoleError",
            "Packet", "Profile", "kg_product",
            "ab_coefficients", "ab_numeric", "completeness_check", "fit_temperature",
            "planck_occupation", "thermal_occupation",
            "CrossMoments", "adjacent_moments_analytic", "alpha_beta_adjacent", "alpha_beta_numeric",
            "asymptotic_moment", "cross_moments", "smeared_asymptotic_moment",
            "CovarianceMatrix", "WavepacketSpec", "build_covariance", "fig2_sweep",
            "joint_variance", "mode_variance", "squeezing_witness",
            "expected_rate", "identity_residual", "response_rate", "response_rates", "worldline_clock",
            "__version__",
        ]
        assert len(set(names)) == len(names) == 32
        assert [name for name in names if not hasattr(diamondfield, name)] == []
        assert diamondfield.worldline_clock is detector.worldline_clock
        with pytest.raises(ModuleNotFoundError):  # the unused conformal map is deleted
            importlib.import_module("diamondfield.geometry")
        # identity_residual is the one entry to the Wightman forms it compares
        assert not {"wightman_minkowski", "scaled_static_wightman", "accelerated_wightman",
                    "thermal_wightman"} & set(vars(detector))

    def test_results_in_units_of_a(self):
        # no function takes the diamond's size: coordinates are in units of
        # 1/a, frequencies and energies in units of a
        names = dict(self._public_callables())
        assert "diamondfield.detector.worldline_clock" in names
        scaled = [name for name, fn in names.items() if "scale" in inspect.signature(fn).parameters]
        assert scaled == []

    @pytest.mark.parametrize("argv", [["--a", "2", "spectrum"], ["spectrum", "--a", "2"],
                                      ["fig2", "--a", "2"]])
    def test_no_display_scale_flag(self, argv):
        # --a once rescaled only spectrum's omega0 column while every command
        # printed a=2; results are in units of a
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["correlations", "fig2", "detector", "validate"])
    def test_only_spectrum_takes_tol(self, command, capsys):
        assert cli.build_parser().parse_args(["spectrum", "--tol", "0.5"]).tol == 0.5
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--tol", "0.5"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_detector_takes_no_eps(self, capsys):
        # the rate is the eps -> 0 limit, so --eps and its eps / 2 check are gone
        with pytest.raises(SystemExit) as exc:
            main(["detector", "--eps", "1e-8"])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    def test_unreachable_tolerance_is_a_usage_error(self, capsys):
        # once a quadrature tolerance that ran every doubling into a MemoryError
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["correlations", "--n", "2", "--grid", "1.0", "--tol", "1e-30"])
        assert exc.value.code == 2
        assert time.perf_counter() - t0 < 1.0
