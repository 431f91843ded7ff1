"""The benchmark's workloads: inputs from a seed, timed operations, output checks.

Each workload builds its inputs in set-up, runs its operations in whole rounds
and checks every output against an independent computation or a property the
method must have. The program is driven only through its public functions and
its CLI entry point, ofdmsee.cli.main.
"""

import contextlib
import io
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import ofdmsee
from ofdmsee import cli

# reference macro link of the CLI defaults (G = 5 dB, alpha = 3.76, d = 200 m,
# -174 dBm/Hz, 10 MHz); link-grid varies the distance instead
G_DB = 5.0
ALPHA = 3.76
NOISE_PSD_DBM_HZ = -174.0
BANDWIDTH_HZ = 1e7
N_WAYS = 2

# run outputs: CLI files while a run checks them, and traces
OUT_DIR = Path(__file__).resolve().parent / "out"

# agreement demanded between se() and the scipy reference, b/s/Hz: the
# program's own quadrature tolerance (se's default tol)
SE_TOL = 1e-8
# slack on SE <= log2(1 + gamma*xi)
SE_BOUND_SLACK = 1e-10


@dataclass
class Round:
    """One round of a workload: the time its operations took and their outputs."""

    elapsed_s: float
    attempted: int
    failures: list
    outputs: object
    bytes_written: int = 0


# ---------------------------------------------------------------------------
# link-grid: distinct (PA, distance, xi) points, one ee_breakdown each

# 8 peak-SNR strata of 15.5 dB from -24 to +100 dB, crossed with one loading
# per band. Round k starts at the relative position frac(0.5 + k*phi) (a
# golden-ratio sequence, so successive rounds fill the strata evenly) and
# rotates it by 1/16 from one (band, stratum) slot to the next, so its 16 SNRs
# sit at 16 evenly spaced places of their strata and every round mixes cheap
# and dear places alike; the band's loading takes the band's first place. The
# seed shifts each point by up to JITTER of its stratum and picks its PA. Every
# round of every seed thus costs about the same, and no two points of a run,
# or of two seeds, coincide.
GAMMA_DB_EDGES = np.linspace(-24.0, 100.0, 9)
XI_BANDS = ((0.01, 0.1), (0.1, 1.0))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
JITTER = 0.02
# rounds built in set-up; a run stops early if it uses them all
LINK_GRID_ROUNDS = 64


@dataclass(frozen=True)
class LinkPoint:
    pa: str
    d_km: float
    xi: float
    scenario: object
    power: object


def _distance_for(gamma_db, spec):
    """Link distance (km) at which spec reaches peak SNR gamma_db."""
    noise_w = 10.0 ** ((NOISE_PSD_DBM_HZ - 30.0) / 10.0) * BANDWIDTH_HZ
    att_db = 10.0 * math.log10(noise_w / spec.p_max_out) + gamma_db
    return 10.0 ** ((G_DB - 128.0 - att_db) / (10.0 * ALPHA))


def link_grid_round(seed, k):
    """The 16 points of round k: for each loading band one xi, at 8 SNRs."""
    specs = ofdmsee.embedded_datasheet()
    rng = np.random.default_rng([seed, k])
    start = 0.5 + k * GOLDEN
    n_slots = len(XI_BANDS) * (len(GAMMA_DB_EDGES) - 1)

    def place(lo, hi, slot):
        position = (start + slot / n_slots) % 1.0
        return lo + (hi - lo) * min(max(position + rng.uniform(-JITTER, JITTER), 0.0), 1.0 - 1e-9)

    points = []
    for b, (lo, hi) in enumerate(XI_BANDS):
        xi = math.exp(place(math.log(lo), math.log(hi), b))
        for j, (g_lo, g_hi) in enumerate(zip(GAMMA_DB_EDGES[:-1], GAMMA_DB_EDGES[1:])):
            gamma_db = place(float(g_lo), float(g_hi), len(XI_BANDS) * j + b)
            spec = specs[int(rng.integers(len(specs)))]
            d_km = _distance_for(gamma_db, spec)
            scenario = ofdmsee.build_scenario(G_DB, ALPHA, d_km, NOISE_PSD_DBM_HZ, BANDWIDTH_HZ, spec)
            power = replace(ofdmsee.BS_PRESETS["macro"], p_max_out=spec.p_max_out)
            points.append(LinkPoint(spec.model_name, d_km, xi, scenario, power))
    return points


class LinkGrid:
    name = "link-grid"

    def build(self, seed):
        return [link_grid_round(seed, k) for k in range(LINK_GRID_ROUNDS)]

    def rounds(self, inputs):
        return len(inputs)

    def run_round(self, inputs, k, mark):
        outputs, failures = [], []
        t0 = time.perf_counter()
        for i, p in enumerate(inputs[k]):
            mark(i)
            try:
                bd = ofdmsee.ee_breakdown(p.xi, p.scenario, p.power, n_ways=N_WAYS)
                outputs.append((p, bd, ofdmsee.se_ideal(p.xi, p.scenario), ofdmsee.se_ibo(p.xi, p.scenario)))
            except Exception as exc:  # one point failing must not stop the round
                failures.append(f"{p}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        return Round(elapsed, len(inputs[k]), failures, outputs)

    def check(self, inputs, rounds, reference_se):
        errors = []
        for r in rounds:
            errors += check_link_grid(r.outputs, reference_se)
        return errors


def check_link_grid(outputs, reference_se):
    """Errors in one round's (point, breakdown, se_ideal, se_ibo) outputs."""
    errors = []
    by_xi = {}
    for p, bd, s_ideal, s_ibo in outputs:
        gamma = p.scenario.gamma
        se_val = bd.se_bits
        where = f"{p.pa} d={p.d_km:.6g} km xi={p.xi:.6g} gamma={10 * math.log10(gamma):.2f} dB"
        ref = reference_se(gamma, p.xi)
        if not abs(se_val - ref) <= SE_TOL:
            errors.append(f"link-grid {where}: se {se_val!r} differs from reference {ref!r}")
        shannon = math.log2(1.0 + gamma * p.xi)
        if not 0.0 <= se_val <= shannon + SE_BOUND_SLACK:
            errors.append(f"link-grid {where}: se {se_val!r} outside [0, log2(1+gamma*xi) = {shannon!r}]")
        if not abs(s_ideal - shannon) <= 1e-12 * max(1.0, shannon):
            errors.append(f"link-grid {where}: se_ideal {s_ideal!r} is not log2(1+gamma*xi)")
        if not math.isfinite(s_ibo):
            errors.append(f"link-grid {where}: se_ibo {s_ibo!r} not finite")
        ee_lin = ofdmsee.ee_linear(p.xi, p.scenario, p.power, n_ways=N_WAYS)
        if not bd.ee_bits_per_joule <= ee_lin + p.scenario.bandwidth * SE_BOUND_SLACK / bd.pc_watts:
            errors.append(f"link-grid {where}: ee {bd.ee_bits_per_joule!r} above ee_linear {ee_lin!r}")
        by_xi.setdefault(p.xi, []).append((gamma, se_val))
    for xi, pairs in by_xi.items():
        pairs.sort()
        for (g0, s0), (g1, s1) in zip(pairs[:-1], pairs[1:]):
            if s1 < s0 - 1e-12:
                errors.append(f"link-grid xi={xi:.6g}: se falls from {s0!r} to {s1!r} as gamma rises")
    return errors


# ---------------------------------------------------------------------------
# CLI workloads: one ofdmsee invocation per run, as a user makes it. A second
# invocation in the same process would repeat every input, so the run does not
# repeat it.


def read_table(path):
    """Rows, as {column: text}, of a CSV table written by the ofdmsee CLI."""
    with open(path) as fh:
        table = [line.rstrip("\n").split(",") for line in fh if line.strip() and not line.startswith("#")]
    return [dict(zip(table[0], row)) for row in table[1:]]


class _CliWorkload:
    def rounds(self, inputs):
        return 1

    def run_round(self, inputs, k, mark):
        OUT_DIR.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix=self.name + "-", dir=OUT_DIR))
        try:
            argv = inputs["argv"] + ["--out", str(out_dir / (self.name + ".csv"))]
            mark(k)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            elapsed = time.perf_counter() - t0
            outputs, failures = self.collect(out_dir, status)
            written = sum(f.stat().st_size for f in out_dir.iterdir())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Round(elapsed, self.ops, failures, outputs, written)


PAS_VARIANTS = ("ideal", "tdd-gs1db", "fdd-eps10us", "fdd-eps1ms")
PAS_FRAMES = 20
# the abstract's PAS claim: with a 1 dB switch, at an SE target 15% below the
# larger amplifier's maximum, EE gains at least 230% over that maximum-SE point
PAS_GAIN_15 = 2.30


class PasFrontier(_CliWorkload):
    name = "pas-frontier"
    ops = len(PAS_VARIANTS)

    def build(self, seed):
        # the default run: its inputs do not depend on the seed
        return {"argv": ["pas-frontier"]}

    def collect(self, out_dir, status):
        tables, failures = {}, []
        for v in PAS_VARIANTS:
            path = out_dir / f"{self.name}-{v}.csv"
            if status != 0 or not path.exists():
                failures.append(f"pas-frontier variant {v}: no output (exit status {status})")
                continue
            rows = read_table(path)
            tables[v] = [
                {
                    "target": float(r["se_target"]),
                    "ee": float(r["ee"]),
                    "kappa": float(r["kappa"]),
                    "feasible": r["feasible"] == "true",
                }
                for r in rows
            ]
        return tables, failures

    def check(self, inputs, rounds, reference_se):
        errors = []
        for r in rounds:
            errors += check_pas_frontier(r.outputs)
        return errors


def check_pas_frontier(tables):
    """Errors in the variant tables {variant: [row, ...]} of one frontier run."""
    errors = []
    if not tables:
        return errors
    targets = None
    for v, rows in tables.items():
        these = [row["target"] for row in rows]
        if targets is None:
            targets = these
        elif these != targets:
            errors.append(f"pas-frontier {v}: targets differ from the other variants")
            return errors
        if these != sorted(these):
            errors.append(f"pas-frontier {v}: targets not ascending")
        feasible = [row for row in rows if row["feasible"]]
        if any(row["feasible"] for row in rows[len(feasible):]):
            errors.append(f"pas-frontier {v}: a feasible target above an infeasible one")
        for a, b in zip(feasible[:-1], feasible[1:]):
            if b["ee"] > a["ee"] * (1.0 + 1e-12):
                errors.append(f"pas-frontier {v}: EE rises from {a['ee']!r} to {b['ee']!r} as the target rises")
        for row in feasible:
            lattice = row["kappa"] * PAS_FRAMES
            if not (0.0 <= row["kappa"] <= 1.0 and abs(lattice - round(lattice)) <= 1e-9):
                errors.append(f"pas-frontier {v}: kappa {row['kappa']!r} off the K={PAS_FRAMES} lattice")
    present = [v for v in PAS_VARIANTS if v in tables]
    for i, target in enumerate(targets):
        ees = [tables[v][i]["ee"] if tables[v][i]["feasible"] else -math.inf for v in present]
        for (va, a), (vb, b) in zip(zip(present, ees), zip(present[1:], ees[1:])):
            if b > (a * (1.0 + 1e-12) if a > 0.0 else a):
                errors.append(f"pas-frontier target {target!r}: {vb} EE {b!r} above {va} EE {a!r}")
    if "ideal" in tables and "tdd-gs1db" in tables:
        ideal, tdd = tables["ideal"], tables["tdd-gs1db"]
        top = ideal[-1]
        at15 = [i for i, t in enumerate(targets) if abs(t / targets[-1] - 0.85) <= 1e-9]
        if not top["feasible"] or not at15 or not tdd[at15[0]]["feasible"]:
            errors.append("pas-frontier: max-SE row or -15% target missing or infeasible")
        else:
            gain = tdd[at15[0]]["ee"] / top["ee"] - 1.0
            if not gain >= PAS_GAIN_15:
                errors.append(f"pas-frontier: tdd-gs1db gain at -15% target {gain:.4f} below {PAS_GAIN_15}")
    return errors


MC_XI = (0.05, 0.1, 0.2, 0.4)
MC_SAMPLES = 1_000_000
MC_KS_MAX = 0.01
MC_MI_ERR_MAX = 0.1


class McValidate(_CliWorkload):
    name = "mc-validate"
    ops = len(MC_XI)

    def build(self, seed):
        spec = ofdmsee.find_pa("SM2122-44L")  # the CLI's default PA and link
        scenario = ofdmsee.build_scenario(G_DB, ALPHA, 0.2, NOISE_PSD_DBM_HZ, BANDWIDTH_HZ, spec)
        argv = ["mc-validate", "--samples", str(MC_SAMPLES), "--seed", str(seed)]
        return {"argv": argv, "gamma": scenario.gamma}

    def collect(self, out_dir, status):
        path = out_dir / f"{self.name}.csv"
        if status != 0 or not path.exists():
            return [], [f"mc-validate: no output (exit status {status})"] * self.ops
        rows = read_table(path)
        rows = [{k: float(v) for k, v in row.items()} for row in rows]
        missing = self.ops - len(rows)
        return rows, [f"mc-validate: {missing} loading rows missing"] * missing

    def check(self, inputs, rounds, reference_se):
        errors = []
        for r in rounds:
            errors += check_mc_validate(r.outputs, inputs["gamma"], reference_se)
        return errors


def check_mc_validate(rows, gamma, reference_se):
    """Errors in the rows of one mc-validate run on the link of peak SNR gamma."""
    errors = []
    if [row["xi"] for row in rows] != list(MC_XI)[: len(rows)]:
        errors.append(f"mc-validate: loadings {[row['xi'] for row in rows]} are not {list(MC_XI)}")
    frames = -(-MC_SAMPLES // 256)
    for row in rows:
        xi = row["xi"]
        if row["samples"] != frames * 256:
            errors.append(f"mc-validate xi={xi}: {row['samples']:.0f} samples, expected {frames * 256}")
        if not row["ks_distance"] < MC_KS_MAX:
            errors.append(f"mc-validate xi={xi}: KS distance {row['ks_distance']!r} not below {MC_KS_MAX}")
        if not abs(row["mi_estimate"] - row["se_analytic"]) <= MC_MI_ERR_MAX:
            errors.append(f"mc-validate xi={xi}: |MI - SE| = {abs(row['mi_estimate'] - row['se_analytic'])!r} above {MC_MI_ERR_MAX}")
        if not abs(row["error_bits"] - (row["mi_estimate"] - row["se_analytic"])) <= 1e-9:
            errors.append(f"mc-validate xi={xi}: error_bits is not mi_estimate - se_analytic")
        ref = reference_se(gamma, xi)
        if not abs(row["se_analytic"] - ref) <= SE_TOL:
            errors.append(f"mc-validate xi={xi}: se {row['se_analytic']!r} differs from reference {ref!r}")
    return errors


WORKLOADS = {w.name: w for w in (LinkGrid(), PasFrontier(), McValidate())}
