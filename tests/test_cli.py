import json
import math

import pytest

from diamondfield.cli import main


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

    def test_empty_grid_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--grid", ""])
        assert exc.value.code == 2

    def test_too_narrow_packet_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--grid", "1.0", "--sigma", "0.005"])
        assert exc.value.code == 2
        assert "sigma" in capsys.readouterr().err


class TestCorrelations:
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
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert all(r[4] == "true" for r in rows)  # eps consistency column

    def test_negative_energies_fit(self, tmp_path):
        # rate pairs at E < 0 are fitted as Boltzmann exponents, not occupations
        code, text = run(tmp_path, "detector", "--grid=-1,-0.5,2")
        assert code == 0
        meta = dict(ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("# "))
        assert abs(float(meta["fitted_T"]) - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)


class TestValidate:
    def test_exit_zero(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "specfun identities" in out
        assert "FAIL" not in out
