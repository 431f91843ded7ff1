"""End-to-end command-line checks, run in-process via main()."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ofdmsee
from ofdmsee import (
    STANDING_DRAW_PER_WATT,
    DatasheetWarning,
    FrameConfig,
    empirical_pdf_distance,
    estimate_mi,
    embedded_datasheet,
    estimate_mi_radial,
    find_pa,
    se,
    simulate_frames,
)
from ofdmsee import cli, se_engine
from ofdmsee.cli import main

GRID = "0.05:0.8:5"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    header = {}
    columns, rows = None, []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


class TestSeSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run(capsys, "se-sweep", "--xi-grid", GRID)
        assert code == 0 and err == ""
        assert out.startswith("# tool: ofdmsee")
        assert "# figure: se-vs-loading" in out
        header, columns, rows = parse_csv(out)
        assert columns == ["xi", "se_exact", "se_ideal", "se_ibo", "pr_clip"]
        assert len(rows) == 5
        assert header["pa"] == "SM2122-44L"
        assert float(header["gamma_db"]) == pytest.approx(51.281272163, abs=1e-6)
        for row in rows:
            assert 0.0 < float(row[1]) <= float(row[2])
        assert "max SE" in out.splitlines()[-1]

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "se-sweep", "--xi-grid", GRID, "--out", str(a))
        code, out, _ = run(capsys, "se-sweep", "--xi-grid", GRID, "--out", str(b))
        assert code == 0
        assert f"wrote {b} (5 rows)" in out
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "se-sweep", "--xi-grid", GRID, "--format", "json", "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["tool"] == "ofdmsee"
        assert doc["figure"] == "se-vs-loading"
        assert doc["columns"][0] == "xi"
        assert len(doc["rows"]) == 5
        # se-sweep reads neither the transmitter preset nor a seed
        assert "bs_type" not in doc["config"] and "seed" not in doc["config"]

    def test_channel_flags_change_output(self, capsys):
        _, base, _ = run(capsys, "se-sweep", "--xi-grid", GRID)
        _, far, _ = run(capsys, "se-sweep", "--xi-grid", GRID, "--d-km", "0.4")
        h_base, _, r_base = parse_csv(base)
        h_far, _, r_far = parse_csv(far)
        assert float(h_far["gamma_db"]) < float(h_base["gamma_db"])
        assert float(r_far[2][1]) < float(r_base[2][1])


class TestConfigFile:
    def test_file_sets_values_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nd_km = 0.4\nxi_grid = 0.05:0.8:5\n")
        _, out_file, _ = run(capsys, "se-sweep", "--config", str(cfg))
        header, _, _ = parse_csv(out_file)
        assert header["d_km"] == "0.4"
        _, out_cli, _ = run(capsys, "se-sweep", "--config", str(cfg), "--d-km", "0.2")
        header, _, _ = parse_csv(out_cli)
        assert header["d_km"] == "0.2"

    def test_equals_spelling_reads_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_km = 0.4\nxi_grid = 0.05:0.8:5\n")
        _, spaced, _ = run(capsys, "se-sweep", "--config", str(cfg))
        code, joined, _ = run(capsys, "se-sweep", f"--config={cfg}")
        assert code == 0 and joined == spaced
        assert parse_csv(joined)[0]["d_km"] == "0.4"

    def test_missing_config_file_is_reported(self, capsys):
        code, _, err = run(capsys, "se-sweep", "--config", "/nonexistent/path.cfg")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "FileNotFoundError"

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        code, _, err = run(capsys, "se-sweep", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"


class TestEeSweepAndTradeoff:
    def test_ee_sweep(self, capsys):
        code, out, err = run(capsys, "ee-sweep", "--xi-grid", GRID, "--n-ways", "2")
        assert code == 0 and err == ""
        header, columns, rows = parse_csv(out)
        assert columns == ["xi", "ee_exact", "ee_linear", "ee_ideal", "pc_watts"]
        assert header["n_ways"] == "2"
        assert float(header["p_fix_w"]) == 130.0
        for row in rows:
            assert float(row[1]) <= float(row[2]) <= float(row[3])
        assert "max EE" in out.splitlines()[-1]

    def test_tradeoff_window(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--xi-grid", GRID)
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["xi", "se_exact", "ee_exact", "se_approx", "ee_approx"]
        assert float(header["window_lo"]) == pytest.approx(0.25, abs=1e-9)
        assert float(header["window_hi"]) == pytest.approx(0.3399825458, abs=1e-6)
        assert "tradeoff window" in out.splitlines()[-1]

    def test_tradeoff_at_1_km_keeps_its_table(self, capsys):
        # the closed-form window is outside its domain at 25 dB: its header
        # fields are empty and a note says why, but the sweep is all there
        code, out, err = run(capsys, "tradeoff", "--xi-grid", GRID, "--d-km", "1")
        assert code == 0 and err == ""
        header, columns, rows = parse_csv(out)
        assert header["window_lo"] == "" and header["window_hi"] == ""
        assert len(rows) == 5 and all(float(row[1]) > 0.0 for row in rows)
        assert out.splitlines()[-1].startswith(
            "# tradeoff window is outside its domain: ValueError: closed_form needs"
        )


class TestOptimalXi:
    def test_printed_values(self, capsys):
        code, out, err = run(capsys, "optimal-xi")
        assert code == 0 and err == ""
        lines = out.splitlines()
        got = {}
        for line in lines:
            name, _, rest = line.partition(": ")
            got[name] = float(rest.split()[0])
        assert list(got) == ["xi_se exact", "xi_se closed-form", "xi_ee exact", "xi_ee closed-form"]
        assert got["xi_se exact"] == pytest.approx(0.4086167351, abs=1e-8)
        assert got["xi_se closed-form"] == pytest.approx(0.3399825458, abs=1e-8)
        assert got["xi_ee exact"] == pytest.approx(0.2022029441, abs=1e-8)
        assert got["xi_ee closed-form"] == pytest.approx(0.25, abs=1e-9)
        assert "(piece 1)" in lines[2] and "(piece 1)" in lines[3]

    def test_table_output(self, capsys, tmp_path):
        path = tmp_path / "xi.csv"
        code, _, _ = run(capsys, "optimal-xi", "--out", str(path))
        assert code == 0
        _, columns, rows = parse_csv(path.read_text())
        assert columns == ["quantity", "method", "xi", "piece"]
        assert len(rows) == 4

    def test_every_embedded_pa_answers_at_1_km(self, capsys, tmp_path):
        # at 1 km the SE closed form is outside its domain for every PA: its
        # row has no loading and a note says why; the exact optima answer
        for spec in embedded_datasheet():
            code, out, err = run(capsys, "optimal-xi", "--pa", spec.model_name, "--d-km", "1")
            assert code == 0 and err == "", spec.model_name
            lines = out.splitlines()
            assert lines[1] == "xi_se closed-form:"
            assert lines[2].startswith("# xi_se closed-form is outside its domain: ValueError: ")
            for line in (lines[0], lines[3]):
                assert 0.0 < float(line.split(": ")[1].split()[0]) <= 1.0
        path = tmp_path / "xi.csv"
        code, _, _ = run(capsys, "optimal-xi", "--d-km", "1", "--out", str(path))
        assert code == 0
        _, _, rows = parse_csv(path.read_text())
        assert rows[1] == ["xi_se", "closed-form", "", ""]

    def test_closed_form_warning_is_a_note_not_a_python_warning(self):
        # the closed form falls back to a piece endpoint on the femto preset;
        # that reaches stdout as a note beside its row, and stderr stays empty
        src = Path(ofdmsee.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "ofdmsee.cli", "optimal-xi", "--bs-type", "femto"],
            cwd=src, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0
        assert "RuntimeWarning" not in done.stderr and done.stderr == ""
        lines = done.stdout.splitlines()
        assert lines[3].startswith("xi_ee closed-form: ")
        assert lines[4] == (
            "# xi_ee closed-form warns: piece 2 has non-positive v1; closed-form "
            "candidate replaced by the better piece endpoint"
        )

    def test_link_where_the_linear_bound_peaks_below_zeta(self, capsys):
        # the exact EE optimum needs no zeta hypothesis, so every row answers
        code, out, err = run(
            capsys, "optimal-xi", "--pa", "SM1720-50", "--bs-type", "femto",
            "--n-ways", "1", "--d-km", "0.535426",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert [line.partition(": ")[0] for line in lines] == [
            "xi_se exact", "xi_se closed-form", "xi_ee exact", "xi_ee closed-form"
        ]
        assert all(0.0 < float(line.split(": ")[1].split()[0]) <= 1.0 for line in lines)


class TestPaResolution:
    def test_embedded_by_row_id(self, capsys):
        code, out, _ = run(capsys, "se-sweep", "--xi-grid", GRID, "--pa", "106")
        assert code == 0
        header, _, _ = parse_csv(out)
        assert header["pa"] == "SM2122-44L"

    def test_unknown_pa_fails_cleanly(self, capsys):
        code, _, err = run(capsys, "se-sweep", "--pa", "NO-SUCH-AMP")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "KeyError"
        assert record["command"] == "se-sweep"

    def test_csv_file_with_row_selector(self, capsys, tmp_path):
        sheet = tmp_path / "amps.csv"
        sheet.write_text(
            "model,p_max_out_dBm,gain_dB,voltage_V,current_mA,p_max_in_dBm,turn_on_us\n"
            "AMP-A,44.0,55.0,12.0,8200,-11.0,250\n"
            "AMP-B,50.0,57.0,28.0,11000,-7.0,250\n"
        )
        code, out, _ = run(capsys, "se-sweep", "--xi-grid", GRID, "--pa", f"{sheet}:AMP-B")
        assert code == 0
        assert parse_csv(out)[0]["pa"] == "AMP-B"
        code, out, _ = run(capsys, "se-sweep", "--xi-grid", GRID, "--pa", f"{sheet}:0")
        assert code == 0
        assert parse_csv(out)[0]["pa"] == "AMP-A"
        # a negative row is an unknown row, not a count from the end
        for row in ("2", "-1"):
            code, _, err = run(capsys, "se-sweep", "--xi-grid", GRID, "--pa", f"{sheet}:{row}")
            assert code == 2
            record = json.loads(err)
            assert record["error"] == "KeyError"
            assert f"row '{row}' not found" in record["message"]


class TestPasFrontier:
    def test_custom_variant_single_table(self, capsys):
        code, out, err = run(
            capsys,
            "pas-frontier",
            "--xi-grid", "0.1:1:5",
            "--targets", "2,8",
            "--duplex", "tdd",
            "--gs-db", "0",
        )
        assert code == 0 and err == ""
        header, columns, rows = parse_csv(out)
        assert columns == ["se_target", "ee", "kappa", "xi1", "xi2", "feasible"]
        assert header["variant"] == "custom"
        assert header["duplex"] == "tdd"
        # each arm carries a standing draw proportional to its own rating
        for key, model in (("p_fix_low_w", "SM2122-44L"), ("p_fix_high_w", "SM1720-50")):
            want = STANDING_DRAW_PER_WATT * find_pa(model).p_max_out
            assert float(header[key]) == pytest.approx(want, rel=1e-11)
        assert len(rows) == 2
        assert rows[0][5] == "true"
        assert 0.0 <= float(rows[0][2]) <= 1.0

    def test_preset_mode_writes_four_files(self, capsys, tmp_path):
        stem = tmp_path / "pf"
        code, out, _ = run(
            capsys,
            "pas-frontier",
            "--xi-grid", "0.1:1:5",
            "--targets", "2,8",
            "--out", str(stem),
        )
        assert code == 0
        names = ("ideal", "tdd-gs1db", "fdd-eps10us", "fdd-eps1ms")
        for name in names:
            path = tmp_path / f"pf-{name}.csv"
            assert path.exists()
            header, _, rows = parse_csv(path.read_text())
            assert header["variant"] == name
            assert float(header["p_fix_high_w"]) > float(header["p_fix_low_w"])
            assert len(rows) == 2
        ideal = parse_csv((tmp_path / "pf-ideal.csv").read_text())[2]
        lossy = parse_csv((tmp_path / "pf-fdd-eps1ms.csv").read_text())[2]
        assert float(ideal[0][1]) >= float(lossy[0][1])

    def test_empty_targets_rejected(self, capsys, monkeypatch):
        def entropy(*args):
            raise AssertionError("evaluated se() despite empty targets")

        monkeypatch.setattr(se_engine, "entropy_y", entropy)
        monkeypatch.setattr(se_engine, "_entropies", entropy)
        code, out, err = run(
            capsys, "pas-frontier", "--targets", "", "--duplex", "tdd", "--xi-grid", "0.1:1:5"
        )
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["command"] == "pas-frontier"
        assert "targets" in record["message"]

    @pytest.mark.parametrize("targets", ["-3,nan", "nan", "inf", "2,-0.5"])
    def test_invalid_targets_rejected(self, targets, capsys, monkeypatch):
        def entropy(*args):
            raise AssertionError("evaluated se() despite invalid targets")

        monkeypatch.setattr(se_engine, "entropy_y", entropy)
        monkeypatch.setattr(se_engine, "_entropies", entropy)
        code, out, err = run(
            capsys, "pas-frontier", f"--targets={targets}", "--duplex", "tdd", "--xi-grid", "0.1:1:5"
        )
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["command"] == "pas-frontier"
        assert "targets" in record["message"]

    def test_default_run_shares_se_curves(self, capsys, tmp_path, entropy_calls):
        # the default run makes 432 se() calls on 192 distinct inputs: the
        # probe's 48 loadings, then 2 arms x 48 loadings for each of the four
        # variants, on 4 distinct (arm, insertion loss) scenarios; each
        # distinct input is handed to the batched quadrature once
        for _ in range(2):
            entropy_calls.clear()
            code, _, err = run(capsys, "pas-frontier", "--out", str(tmp_path / "pf"))
            assert code == 0 and err == ""
            # a second invocation evaluates them again: no memo outlives a call
            assert len(entropy_calls) == 192


class TestMcValidate:
    def test_smoke(self, capsys):
        code, out, err = run(
            capsys,
            "mc-validate",
            "--xi", "0.2",
            "--samples", "4096",
            "--n-sub", "128",
        )
        assert code == 0 and err == ""
        header, columns, rows = parse_csv(out)
        assert columns == ["xi", "samples", "ks_distance", "mi_estimate", "se_analytic", "error_bits"]
        assert len(rows) == 1
        assert rows[0][1] == "4096"
        assert float(rows[0][2]) < 0.08
        assert abs(float(rows[0][5])) < 0.3
        assert "xi=0.2:" in out

    def test_row_comes_from_the_radial_estimator(self, capsys, scenario):
        # the conftest link is the CLI's default one; 32 frames of 128 subcarriers
        code, out, _ = run(
            capsys, "mc-validate", "--xi", "0.2", "--samples", "4096", "--n-sub", "128",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        xi, samples, ks, mi, se_val, err = rows[0]
        y = simulate_frames(FrameConfig(128, 16, 32, seed=12345), 0.2, scenario)
        radial = estimate_mi_radial(y, scenario)
        want_se = se(0.2, scenario)
        assert mi == "%.12g" % radial
        assert mi != "%.12g" % estimate_mi(y, scenario)
        assert ks == "%.12g" % empirical_pdf_distance(y, 0.2, scenario)
        assert se_val == "%.12g" % want_se
        assert err == "%.12g" % (radial - want_se)

    def test_multi_batch_row_comes_from_the_radial_estimators(self, capsys, scenario):
        # 1,094 frames of 128 subcarriers are three batches on the worker pool
        code, out, _ = run(
            capsys, "mc-validate", "--xi", "0.2", "--samples", "140000", "--n-sub", "128",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        _, samples, ks, mi, _, _ = rows[0]
        y = simulate_frames(FrameConfig(128, 16, 1094, seed=12345), 0.2, scenario)
        assert samples == str(y.size)
        assert ks == "%.12g" % empirical_pdf_distance(y, 0.2, scenario)
        assert mi == "%.12g" % estimate_mi_radial(y, scenario)

    @staticmethod
    def refuse_to_simulate(monkeypatch):
        def simulate(*args):
            raise AssertionError("simulated despite an invalid argument")

        monkeypatch.setattr(cli, "_link_statistics", simulate)

    def test_a_valid_run_reaches_the_refused_simulator(self, capsys, monkeypatch):
        # so the rejections below are made before mc-validate simulates
        self.refuse_to_simulate(monkeypatch)
        code, out, err = run(capsys, "mc-validate", "--samples", "2000", "--n-sub", "128")
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == "simulated despite an invalid argument"

    @classmethod
    def assert_rejected_before_simulating(cls, capsys, monkeypatch, argv, named):
        cls.refuse_to_simulate(monkeypatch)
        code, out, err = run(capsys, "mc-validate", *argv)
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["command"] == "mc-validate"
        assert named in record["message"]

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_rejected(self, capsys, monkeypatch, samples):
        self.assert_rejected_before_simulating(capsys, monkeypatch, ["--samples", samples], "samples")

    @pytest.mark.parametrize("n_sub", ["0", "-5"])
    def test_invalid_subcarrier_count_rejected(self, capsys, monkeypatch, n_sub):
        # --n-sub 0 once divided the sample count before it was validated
        self.assert_rejected_before_simulating(
            capsys, monkeypatch, ["--n-sub", n_sub], "n_subcarriers"
        )

    @pytest.mark.parametrize("xi", ["0.1,1.5", ""])
    def test_invalid_loadings_rejected(self, capsys, monkeypatch, xi):
        # every loading is checked before the first one is simulated
        self.assert_rejected_before_simulating(capsys, monkeypatch, ["--xi", xi], "loading")

    def test_cp_longer_than_the_frame_rejected(self, capsys, monkeypatch):
        # --cp 300 on 256 subcarriers once exited with a numpy broadcast error
        self.assert_rejected_before_simulating(capsys, monkeypatch, ["--cp", "300"], "cp_length")


class TestDatasheet:
    def test_embedded_table(self, capsys):
        code, out, err = run(capsys, "datasheet")
        assert code == 0 and err == ""
        header, columns, rows = parse_csv(out)
        assert header["source"] == "embedded"
        assert columns[0] == "model" and "drain_efficiency" in columns
        assert len(rows) == 34
        assert "# median drain efficiency: 0.24" in out

    def test_file_source(self, capsys, tmp_path):
        sheet = tmp_path / "amps.csv"
        sheet.write_text(
            "model,p_max_out_dBm,gain_dB,voltage_V,current_mA,p_max_in_dBm,turn_on_us\n"
            "AMP-A,44.0,55.0,12.0,8200,-11.0,250\n"
        )
        code, out, _ = run(capsys, "datasheet", "--file", str(sheet))
        assert code == 0
        header, _, rows = parse_csv(out)
        assert header["source"] == str(sheet)
        assert len(rows) == 1 and rows[0][0] == "AMP-A"

    def test_row_failing_the_spec_is_skipped(self, capsys, tmp_path):
        # a NaN rating once aborted the whole load with exit 2
        sheet = tmp_path / "amps.csv"
        sheet.write_text("model,p_max_out_dBm,gain_dB\nX,nan,30\nAMP-A,44.0,55.0\n")
        with pytest.warns(DatasheetWarning, match="row skipped"):
            code, out, _ = run(capsys, "datasheet", "--file", str(sheet))
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["AMP-A"]


CHANNEL_KEYS = {"g_db", "alpha", "d_km", "noise_psd_dbm_hz", "bandwidth_hz"}
LINK_KEYS = {"pa"} | CHANNEL_KEYS
GRID_KEYS = {"xi_grid_min", "xi_grid_max", "xi_grid_points"}
# the flags only some subcommands take, each with a valid value
OPTIONAL_FLAGS = {
    "--pa": "SM2122-44L", "--bs-type": "macro", "--xi-grid": GRID, "--seed": "1",
}
# per subcommand: a quick run, its header keys, and the optional flags it reads
FLAG_CASES = {
    "se-sweep": (["--xi-grid", GRID], LINK_KEYS | GRID_KEYS | {"gamma_db"}, {"--pa", "--xi-grid"}),
    "ee-sweep": (
        ["--xi-grid", GRID],
        LINK_KEYS | GRID_KEYS | {"bs_type", "n_ways", "p_fix_w", "c_slope"},
        {"--pa", "--bs-type", "--xi-grid"},
    ),
    "tradeoff": (
        ["--xi-grid", GRID],
        LINK_KEYS | GRID_KEYS | {"bs_type", "n_ways", "window_lo", "window_hi"},
        {"--pa", "--bs-type", "--xi-grid"},
    ),
    "optimal-xi": ([], LINK_KEYS | {"bs_type", "n_ways"}, {"--pa", "--bs-type"}),
    "pas-frontier": (
        ["--xi-grid", "0.1:1:5", "--targets", "2,8", "--duplex", "tdd"],
        CHANNEL_KEYS | GRID_KEYS | {
            "pa_low", "pa_high", "p_fix_low_w", "p_fix_high_w", "bs_type", "n_ways", "duplex",
            "eps_s", "gs_db", "frames", "frame_length_s", "xi_mode", "variant",
        },
        {"--bs-type", "--xi-grid"},
    ),
    "mc-validate": (
        ["--xi", "0.2", "--samples", "4096", "--n-sub", "128"],
        LINK_KEYS | {"seed", "samples", "n_subcarriers", "cp"},
        {"--pa", "--seed"},
    ),
    "datasheet": ([], {"source"}, set()),
}


class TestFlagsMatchHeaders:
    @pytest.mark.parametrize("command", sorted(FLAG_CASES))
    def test_header_lists_exactly_the_flags_read(self, capsys, tmp_path, command):
        argv, keys, _ = FLAG_CASES[command]
        out = tmp_path / "table.csv"
        code, _, err = run(capsys, command, *argv, "--out", str(out))
        assert code == 0 and err == ""
        assert set(parse_csv(out.read_text())[0]) == keys

    @pytest.mark.parametrize("command", sorted(FLAG_CASES))
    def test_flags_not_read_are_rejected(self, capsys, tmp_path, command):
        _, _, reads = FLAG_CASES[command]
        for flag in sorted(set(OPTIONAL_FLAGS) - reads):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, OPTIONAL_FLAGS[flag]])
            assert exc.value.code == 2
            # the same key in a config file fails the same way
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:].replace('-', '_')} = {OPTIONAL_FLAGS[flag]}\n")
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg)])
            assert exc.value.code == 2
            capsys.readouterr()


# the figure name each subcommand tags its tables with
FIGURES = {
    "se-sweep": "se-vs-loading",
    "ee-sweep": "ee-vs-loading",
    "tradeoff": "se-ee-tradeoff",
    "optimal-xi": "optimal-loading",
    "pas-frontier": "pas-frontier",
    "mc-validate": "mc-validation",
    "datasheet": "pa-datasheet",
}


class TestRegistry:
    @pytest.mark.parametrize("command", sorted(FIGURES))
    def test_tables_name_their_figure(self, capsys, tmp_path, command):
        argv, _, _ = FLAG_CASES[command]
        csv, doc = tmp_path / "table.csv", tmp_path / "table.json"
        assert run(capsys, command, *argv, "--out", str(csv))[0] == 0
        assert run(capsys, command, *argv, "--format", "json", "--out", str(doc))[0] == 0
        assert f"# figure: {FIGURES[command]}" in csv.read_text().splitlines()
        assert json.loads(doc.read_text())["figure"] == FIGURES[command]

    @pytest.mark.parametrize("key", ["run", "figure"])
    @pytest.mark.parametrize("command", sorted(FIGURES))
    def test_config_file_cannot_set_the_handler_or_figure(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key} x" in capsys.readouterr().err


# each subcommand's options in --help order
HELP_OPTIONS = {
    "se-sweep": ["--pa", "--xi-grid"],
    "ee-sweep": ["--pa", "--bs-type", "--xi-grid", "--n-ways"],
    "tradeoff": ["--pa", "--bs-type", "--xi-grid", "--n-ways"],
    "optimal-xi": ["--pa", "--bs-type", "--n-ways"],
    "pas-frontier": ["--bs-type", "--xi-grid", "--n-ways"],
    "mc-validate": ["--pa", "--seed"],
}
LINK_OPTIONS = ["--g-db", "--alpha", "--d-km", "--noise-psd", "--bandwidth"]
OWN_OPTIONS = {
    "pas-frontier": [
        "--pa-low", "--pa-high", "--frames", "--frame-length", "--duplex", "--eps", "--gs-db",
        "--xi-mode", "--targets",
    ],
    "mc-validate": ["--xi", "--samples", "--n-sub", "--cp"],
}


class TestHelp:
    @staticmethod
    def option_lines(capsys, monkeypatch, command):
        # the --help line of each option, by option, with its spacing folded;
        # wide enough that no help text wraps
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        return {words[0]: " ".join(words) for words in lines if words and words[0].startswith("--")}

    @pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
    def test_link_flags_follow_the_output_flags(self, capsys, monkeypatch, command):
        options = list(self.option_lines(capsys, monkeypatch, command))
        want = ["--config", *HELP_OPTIONS[command], "--out", "--format", *LINK_OPTIONS]
        assert options == want + OWN_OPTIONS.get(command, [])

    def test_datasheet_output_flags_read_as_everywhere(self, capsys, monkeypatch):
        # declared once: datasheet's --config, --out and --format lines are
        # se-sweep's, and --config and --out carry their help text
        sheet = self.option_lines(capsys, monkeypatch, "datasheet")
        sweep = self.option_lines(capsys, monkeypatch, "se-sweep")
        assert list(sheet) == ["--config", "--file", "--out", "--format"]
        for flag in ("--config", "--out", "--format"):
            assert sheet[flag] == sweep[flag]
        assert sheet["--config"] == "--config CONFIG key=value config file"
        assert sheet["--out"] == "--out OUT output path"
        assert sheet["--file"].startswith("--file FILE CSV datasheet to load")


class TestParsing:
    def test_bad_grid_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["se-sweep", "--xi-grid", "0:1:5"])
        assert exc.value.code == 2
        assert "grid needs 0 < min < max <= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [("0.1:1", "grid must be min:max:n or min:max:n:log"), ("0.1:1:5:log:x", "grid must be min:max:n"),
         ("0.1:1:5:cubic", "grid spacing must be 'lin' or 'log'")],
    )
    def test_malformed_grid_exits_with_usage(self, capsys, grid, message):
        with pytest.raises(SystemExit) as exc:
            main(["se-sweep", "--xi-grid", grid])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("targets", ["2,abc", "1;2"])
    def test_malformed_targets_exit_with_usage(self, capsys, targets):
        with pytest.raises(SystemExit) as exc:
            main(["pas-frontier", "--targets", targets])
        assert exc.value.code == 2
        assert "expected a comma-separated list of numbers" in capsys.readouterr().err

    def test_subnormal_loadings_print_finite_cells(self, capsys):
        # at 1e-320 the clip probability and the backoff penalty are 0
        code, out, err = run(capsys, "se-sweep", "--xi-grid", "1e-320:1:3")
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert len(rows) == 3 and "nan" not in out
        assert rows[0][1:] == ["0", "0", "0", "0"]

    @pytest.mark.parametrize("flag, value", [("--g-db", "1e308"), ("--g-db", "-inf"), ("--d-km", "1e-320")])
    def test_link_budget_out_of_range_names_its_flag(self, capsys, flag, value):
        code, _, err = run(capsys, "se-sweep", "--xi-grid", GRID, f"{flag}={value}")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert flag[2:].replace("-", "_") in record["message"]

    def test_grid_needs_enough_points(self, capsys):
        with pytest.raises(SystemExit):
            main(["se-sweep", "--xi-grid", "0.1:0.5:1"])
        assert "at least 2 points" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("ofdmsee ")

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
