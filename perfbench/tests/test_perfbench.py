"""Tests of the benchmark itself: its output checks reject wrong answers and its
traced counts repeat."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ofdmsee
from ofdmsee import se_engine
from perfbench import run, workloads
from perfbench.reference import reference_se
from perfbench.tracer import Tracer, layer_metrics

BENCH_DIR = Path(run.__file__).resolve().parent


def _no_mark(op):
    pass


@pytest.fixture(scope="module")
def link_points():
    # the first loading band of one round: 8 points from -24 to +100 dB
    return workloads.link_grid_round(7, 0)[:8]


@pytest.fixture(scope="module")
def link_outputs(link_points):
    return workloads.LinkGrid().run_round([link_points], 0, _no_mark).outputs


def test_link_grid_check_accepts_program_output(link_outputs):
    assert workloads.check_link_grid(link_outputs, reference_se) == []


def test_link_grid_check_rejects_se_shifted_by_1e6(link_outputs):
    p, bd, s_ideal, s_ibo = link_outputs[3]
    shifted = dataclasses.replace(bd, se_bits=bd.se_bits + 1e-6)
    outputs = link_outputs[:3] + [(p, shifted, s_ideal, s_ibo)] + link_outputs[4:]
    errors = workloads.check_link_grid(outputs, reference_se)
    assert any("differs from reference" in e for e in errors)


def _traced_counts(workload, inputs):
    tracer = Tracer()
    with tracer.installed():
        run.run_rounds(workload, inputs, 1, tracer)
    metrics = layer_metrics(tracer, reference_se)
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def test_traced_counts_repeat(link_points):
    first = _traced_counts(workloads.LinkGrid(), [link_points])
    second = _traced_counts(workloads.LinkGrid(), [link_points])
    assert first == second
    assert first["se_engine.se.calls"] == 8
    assert first["specfun.bessel_i0e.elements"] > 0


def test_tracer_restores_the_program(link_points):
    before = (ofdmsee.se, se_engine.se, ofdmsee.pas_engine.se, ofdmsee.cli.main)
    _traced_counts(workloads.LinkGrid(), [link_points[:1]])
    assert (ofdmsee.se, se_engine.se, ofdmsee.pas_engine.se, ofdmsee.cli.main) == before


def test_pas_frontier_trace_counts_se_calls(monkeypatch):
    # the entropy integral is replaced by a cheap stand-in; every layer that
    # decides which se() calls to make runs unchanged
    def entropy_stand_in(xi, scenario, tol=1e-8, method="integral"):
        return se_engine.noise_entropy(scenario) + math.log2(1.0 + scenario.gamma * xi) * (1.0 - 0.3 * xi)

    monkeypatch.setattr(se_engine, "entropy_y", entropy_stand_in)
    workload = workloads.WORKLOADS["pas-frontier"]
    counts = _traced_counts(workload, workload.build(0))
    assert counts["se_engine.se.calls"] == 432
    assert counts["se_engine.se.unique"] == 192
    assert counts["pas_engine.pas_frontier.calls"] == 4


def _frontier_tables():
    # four variants that pass every check: EE falls with the target, the
    # variants are ordered, and the 1 dB switch gains 280% at the -15% target
    targets = list(np.linspace(0.2, 1.0, 17) * 10.0)
    scale = {"ideal": 1.0, "tdd-gs1db": 0.95, "fdd-eps10us": 0.9, "fdd-eps1ms": 0.8}
    tables = {}
    for v, s in scale.items():
        rows = []
        for i, t in enumerate(targets):
            feasible = v == "ideal" or i < len(targets) - 1
            rows.append({
                "target": t,
                "ee": s * (10.0 + 200.0 * (1.0 - t / targets[-1])) if feasible else math.nan,
                "kappa": (i % 21) / 20.0 if feasible else math.nan,
                "feasible": feasible,
            })
        tables[v] = rows
    return tables


def test_pas_check_accepts_consistent_frontier():
    assert workloads.check_pas_frontier(_frontier_tables()) == []


def test_pas_check_rejects_swapped_variants():
    tables = _frontier_tables()
    tables["ideal"], tables["fdd-eps1ms"] = tables["fdd-eps1ms"], tables["ideal"]
    errors = workloads.check_pas_frontier(tables)
    assert any("above ideal" in e or "above fdd" in e for e in errors)


def test_pas_check_rejects_off_lattice_kappa_and_small_gain():
    tables = _frontier_tables()
    tables["tdd-gs1db"][2]["kappa"] = 0.123
    for row in tables["fdd-eps1ms"]:
        row["ee"] *= 0.5
    for v in ("tdd-gs1db", "fdd-eps10us"):
        for row in tables[v]:
            row["ee"] *= 0.5
    errors = workloads.check_pas_frontier(tables)
    assert any("lattice" in e for e in errors)
    assert any("gain" in e for e in errors)


def test_mc_check_rejects_ks_against_wrong_loading():
    spec = ofdmsee.find_pa("SM2122-44L")
    scen = ofdmsee.build_scenario(5.0, 3.76, 0.2, -174.0, 1e7, spec)
    xi = workloads.MC_XI[0]
    frames = -(-workloads.MC_SAMPLES // 256)
    samples = ofdmsee.simulate_frames(ofdmsee.FrameConfig(256, 16, frames, seed=11), xi, scen)
    mi = ofdmsee.estimate_mi(samples, scen)
    se_val = ofdmsee.se(xi, scen)
    row = {"xi": xi, "samples": float(samples.size), "mi_estimate": mi, "se_analytic": se_val,
           "error_bits": mi - se_val}
    right = dict(row, ks_distance=ofdmsee.empirical_pdf_distance(samples, xi, scen))
    wrong = dict(row, ks_distance=ofdmsee.empirical_pdf_distance(samples, workloads.MC_XI[1], scen))
    assert workloads.check_mc_validate([right], scen.gamma, reference_se) == []
    errors = workloads.check_mc_validate([wrong], scen.gamma, reference_se)
    assert len(errors) == 1 and "KS distance" in errors[0]


def test_reference_matches_high_snr_program_value():
    # 100 dB with heavy clipping, where a chndtr-only reference drifts by 1e-4
    pa = ofdmsee.find_pa("SM2122-44L")
    scen = ofdmsee.LinkScenario(bandwidth=1e7, noise_variance=pa.p_max_out / 1e10, gain=pa.gain,
                                p_max_out=pa.p_max_out)
    assert abs(ofdmsee.se(0.5, scen) - reference_se(1e10, 0.5)) <= workloads.SE_TOL


def test_fails_without_the_program(tmp_path):
    # a directory holding only the benchmark: no result, non-zero exit
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
