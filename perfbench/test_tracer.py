"""Self-test of the benchmark: span recorder, speed probe, digest log, inputs.

    python3 -m pytest -q perfbench/test_tracer.py

Runs on tiny inputs in a few seconds; imports the package from `src/`.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _tiny():
    from diamondfield.bogoliubov import ab_coefficients, ab_numeric
    from diamondfield.specfun import kummer_m

    # |z| = 4k = 12 and z = 15i sit in the mpmath band; ab_numeric uses integrate_adaptive
    ab_coefficients(1.0, [0.5, 3.0, 50.0])
    kummer_m(1.0 + 1.0j, 2.0, 15.0j)
    ab_numeric(1.0, 1.5)


def _traced(fn):
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
    finally:
        undo()
    return rec, wall


def _span_cost(n=20000):
    """Measured seconds one span adds around a no-op call."""
    rec = tracer.Recorder()

    def noop():
        return None

    t0 = time.perf_counter()
    for _ in range(n):
        rec.call("noop", noop, (), {})
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / n


def test_self_times_add_up_to_wrapped_wall_time():
    rec, wall = _traced(_tiny)
    incl, selft = rec.durations()
    assert len(rec.spans) > 0
    assert min(selft) >= -1e-6  # children lie inside their parents
    # what the tree misses is only the wrappers' own entry and exit
    overhead = 4 * len(rec.spans) * _span_cost() + 2e-3
    assert 0.0 <= wall - sum(selft) <= overhead
    roots = sum(d for s, d in zip(rec.spans, incl) if s[3] < 0)
    assert abs(sum(selft) - roots) <= 1e-9 * max(1.0, len(rec.spans))


def test_mp_calls_bounded_by_kummer_lanes():
    rec, _ = _traced(_tiny)
    m = tracer.layer_metrics(rec, {}, 0.0)
    mp = m["specfun.mp_calls"]["value"]
    assert mp > 0
    assert mp <= m["specfun.kummer_m_vec.lanes"]["value"] + m["specfun.kummer_m.calls"]["value"]


def test_quadrature_nodes_double_in_multiples_of_16():
    rec, _ = _traced(_tiny)
    assert rec.quad_evals and all(len(c) >= 2 for c in rec.quad_evals)
    for counts in rec.quad_evals:
        assert all(n % 16 == 0 for n in counts)
        assert all(b == 2 * a for a, b in zip(counts, counts[1:]))


def test_install_is_undone():
    import mpmath

    from diamondfield import bogoliubov, specfun
    from diamondfield.modes import Packet

    before = (specfun.kummer_m_vec, bogoliubov.kummer_m_vec, mpmath.hyp1f1, Packet.eval_natural)
    rec, _ = _traced(lambda: None)
    after = (specfun.kummer_m_vec, bogoliubov.kummer_m_vec, mpmath.hyp1f1, Packet.eval_natural)
    assert before == after


def test_nested_same_name_counted_once():
    rec = tracer.Recorder()

    def inner():
        time.sleep(0.002)

    def outer():
        rec.call("f", inner, (), {})

    rec.call("f", outer, (), {})
    t = rec.totals()["f"]
    incl, _ = rec.durations()
    assert t["calls"] == 2 and t["s"] == incl[0]


def test_metric_names_are_unique_and_complete():
    names = [n for n, _ in tracer.layer_metric_names()]
    assert len(names) == len(set(names)) <= 128
    rec, _ = _traced(lambda: None)
    assert list(tracer.layer_metrics(rec, {}, 0.0)) == names


def test_batches_repeat_per_seed():
    for cls in workloads.WORKLOADS.values():
        wl = cls()
        assert wl.make_batch(3, 0) == wl.make_batch(3, 0)
        if cls is not workloads.Spectrum:  # spectrum runs one fixed Ω0
            assert wl.make_batch(3, 0) != wl.make_batch(4, 0)


def test_benchmark_json_lists_every_metric():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.layer_metric_names()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_probe_time_is_left_out_of_the_operation():
    import signal

    import run

    class BusyCli:
        @staticmethod
        def main(argv):
            t = time.perf_counter()
            while time.perf_counter() - t < 0.5:
                pass
            return 0

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        s0 = probe.spent
        _, op_s, wall, _ = run.run_batch([["busy"]], BusyCli, probe=probe)
        inside = probe.spent - s0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.units) >= 3 and inside > 0.0  # the first and last samples bracket the batch
    assert abs(op_s[0][1] + inside - 0.5) < 2e-3
    assert abs(wall + inside - 0.5) < 2e-3
    assert probe.scale() == run.SpeedProbe.UNIT_REF_S / (sum(d for _, d in probe.units) / len(probe.units))
    start = op_s[0][0]
    assert probe.scale(start + 10.0, start + 20.0) == probe.scale()  # no unit near: all of them count


def test_digest_log_flags_changed_output(tmp_path):
    import run

    log = run.DigestLog(tmp_path / "d.json", "src-a")
    log.record([["validate"]], [(0, "pass\n# elapsed=1.0s failures=0\n")])
    log.save()
    again = run.DigestLog(tmp_path / "d.json", "src-a")
    again.record([["validate"]], [(0, "pass\n# elapsed=2.5s failures=0\n")])
    assert again.mismatches == []  # the elapsed time is masked
    again.record([["validate"]], [(0, "FAIL\n# elapsed=2.5s failures=1\n")])
    assert again.mismatches == ["validate"]


def test_digest_log_starts_afresh_for_other_source(tmp_path):
    import run

    log = run.DigestLog(tmp_path / "d.json", "src-a")
    log.record([["validate"]], [(0, "pass\n")])
    log.save()
    changed = run.DigestLog(tmp_path / "d.json", "src-b")
    changed.record([["validate"]], [(0, "pass with other bytes\n")])
    assert changed.mismatches == []
