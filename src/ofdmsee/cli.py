"""Command-line interface.

Subcommands cover the scenario sweeps (se-sweep, ee-sweep, tradeoff), the
switching-schedule frontier (pas-frontier), Monte Carlo validation
(mc-validate), datasheet inspection (datasheet), and the loading-factor
optimizers (optimal-xi). The argparse parser is the one registry of
subcommands: each subparser carries its handler (run) and the figure name
its tables are tagged with (figure), and accepts only the flags it reads.
All outputs embed the flags the command reads in a comment header and are
byte-identical across reruns with the same inputs.
"""

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from ._common import check_loading
from .ee_engine import InfeasibleError, ee_sweep, pareto_window, xi_ee_max, xi_ee_opt
from .mc_oracle import FrameConfig, _link_statistics
from .pa_models import (
    drain_efficiency,
    embedded_datasheet,
    find_pa,
    load_datasheet,
)
from .pas_engine import Duplex, PasConfig, pas_frontier, switched_arm
from .power_models import BS_PRESETS
from .se_engine import (
    build_scenario, se, se_curve, se_ibo, se_memo, se_sweep, xi_se_max, xi_se_opt
)

# ---------------------------------------------------------------------------
# Argument plumbing


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("grid must be min:max:n or min:max:n:log")
    lo, hi = float(parts[0]), float(parts[1])
    n = int(parts[2])
    spacing = parts[3].lower() if len(parts) == 4 else "lin"
    if spacing not in ("lin", "linear", "log"):
        raise argparse.ArgumentTypeError("grid spacing must be 'lin' or 'log'")
    if not (0.0 < lo < hi <= 1.0):
        raise argparse.ArgumentTypeError("grid needs 0 < min < max <= 1")
    if n < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points")
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _parse_float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")


def _resolve_pa(token):
    """PA lookup: embedded model name / row id, or file.csv:row."""
    if ":" in token:
        path, _, row = token.rpartition(":")
        specs = load_datasheet(path)
        for spec in specs:
            if spec.model_name == row:
                return spec
        # a plain index only: -1 would otherwise pick the last row
        if row.isdecimal() and int(row) < len(specs):
            return specs[int(row)]
        raise KeyError(f"row {row!r} not found in {path}")
    return find_pa(token)


# flags that only some subcommands read
_FLAGS = {
    "pa": dict(default="SM2122-44L", help="PA preset, row id, or file:row"),
    "bs-type": dict(default="macro", choices=sorted(BS_PRESETS), help="transmitter preset"),
    "xi-grid": dict(
        type=_parse_grid, default="0.005:1:80:log", help="loading grid min:max:n[:log]"
    ),
    "seed": dict(type=int, default=12345, help="RNG seed"),
    "n-ways": dict(type=int, default=2, help="Doherty way count"),
    "file": dict(default=None, help="CSV datasheet to load instead of the embedded table"),
}


def _common_args(parser, *flags):
    # the flags every subcommand reads, around the given ones of _FLAGS
    parser.add_argument("--config", default=None, help="key=value config file")
    for flag in flags:
        parser.add_argument("--" + flag, **_FLAGS[flag])
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _link_args(parser):
    # the flags of the link scenario, read by every subcommand but datasheet
    parser.add_argument("--g-db", type=float, default=5.0, help="channel gain constant, dB")
    parser.add_argument("--alpha", type=float, default=3.76, help="path-loss exponent")
    parser.add_argument("--d-km", type=float, default=0.2, help="link distance, km")
    parser.add_argument("--noise-psd", type=float, default=-174.0, help="noise PSD, dBm/Hz")
    parser.add_argument("--bandwidth", type=float, default=1e7, help="bandwidth, Hz")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ofdmsee",
        description="Spectral/energy efficiency of clipped OFDM links and "
        "amplifier-switching schedules",
    )
    parser.add_argument("--version", action="version", version=f"ofdmsee {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("se-sweep", help="spectral efficiency vs loading factor")
    _common_args(p, "pa", "xi-grid")
    _link_args(p)
    p.set_defaults(run=_cmd_se_sweep, figure="se-vs-loading")

    p = sub.add_parser("ee-sweep", help="energy efficiency vs loading factor")
    _common_args(p, "pa", "bs-type", "xi-grid", "n-ways")
    _link_args(p)
    p.set_defaults(run=_cmd_ee_sweep, figure="ee-vs-loading")

    p = sub.add_parser("tradeoff", help="joined SE-EE curve over the loading grid")
    _common_args(p, "pa", "bs-type", "xi-grid", "n-ways")
    _link_args(p)
    p.set_defaults(run=_cmd_tradeoff, figure="se-ee-tradeoff")

    p = sub.add_parser(
        "optimal-xi", help="optimal loading factors: exact optimum and paper closed form"
    )
    _common_args(p, "pa", "bs-type", "n-ways")
    _link_args(p)
    p.set_defaults(run=_cmd_optimal_xi, figure="optimal-loading")

    p = sub.add_parser("pas-frontier", help="SE-EE frontier of a two-PA switching schedule")
    _common_args(p, "bs-type", "xi-grid", "n-ways")
    _link_args(p)
    p.set_defaults(run=_cmd_pas_frontier, figure="pas-frontier", xi_grid="0.02:1:48:log")
    p.add_argument("--pa-low", default="SM2122-44L")
    p.add_argument("--pa-high", default="SM1720-50")
    p.add_argument("--frames", type=int, default=20, help="frames per schedule window")
    p.add_argument("--frame-length", type=float, default=0.01, help="frame length, s")
    p.add_argument("--duplex", choices=("tdd", "fdd"), default=None)
    p.add_argument("--eps", type=float, default=None, help="switching dead time, s")
    p.add_argument("--gs-db", type=float, default=None, help="switch insertion loss, dB")
    p.add_argument("--xi-mode", choices=("shared", "per_pa"), default="shared")
    p.add_argument("--targets", type=_parse_float_list, default=None,
                   help="explicit SE targets, b/s/Hz")

    p = sub.add_parser("mc-validate", help="Monte Carlo validation of the analytic engine")
    _common_args(p, "pa", "seed")
    _link_args(p)
    p.set_defaults(run=_cmd_mc_validate, figure="mc-validation")
    p.add_argument("--xi", type=_parse_float_list, default=[0.05, 0.1, 0.2, 0.4])
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--n-sub", type=int, default=256, help="subcarriers per frame")
    p.add_argument("--cp", type=int, default=16, help="cyclic-prefix length")

    p = sub.add_parser("datasheet", help="list amplifier table with drain efficiency")
    _common_args(p, "file")
    p.set_defaults(run=_cmd_datasheet, figure="pa-datasheet")

    return parser


def _read_config_file(path):
    pairs = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            pairs.extend([flag, value.strip()])
    return pairs


def _effective_argv(argv):
    """Insert config-file entries after the subcommand so flags override them."""
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
        else:
            continue
        return [argv[0]] + _read_config_file(cfg_path) + argv[1:]
    return argv


# ---------------------------------------------------------------------------
# Output plumbing


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _render_csv(figure, params, columns, rows):
    lines = [f"# tool: ofdmsee {__version__}", f"# figure: {figure}"]
    for key in sorted(params):
        lines.append(f"# {key} = {_fmt(params[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(figure, params, columns, rows):
    doc = {
        "tool": "ofdmsee",
        "version": __version__,
        "figure": figure,
        "config": {k: _fmt(v) for k, v in params.items()},
        "columns": list(columns),
        "rows": [[_fmt(v) for v in row] for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _note(args, text):
    """Human-facing summary line; '#'-prefixed so stdout stays a valid table."""
    if args.format == "json" and args.out is None:
        return
    print(f"# {text}")


def _write_table(args, out, params, columns, rows):
    """Render the table in args.format, tagged args.figure, to out or stdout."""
    render = _render_json if args.format == "json" else _render_csv
    text = render(args.figure, params, columns, rows)
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {out} ({len(rows)} rows)")


def _channel_params(args):
    return {
        "g_db": args.g_db,
        "alpha": args.alpha,
        "d_km": args.d_km,
        "noise_psd_dbm_hz": args.noise_psd,
        "bandwidth_hz": args.bandwidth,
    }


def _scenario_params(args, spec):
    return {"pa": spec.model_name} | _channel_params(args)


def _grid_params(grid):
    return {
        "xi_grid_min": float(grid[0]),
        "xi_grid_max": float(grid[-1]),
        "xi_grid_points": int(grid.size),
    }


def _make_scenario(args, spec):
    return build_scenario(args.g_db, args.alpha, args.d_km, args.noise_psd, args.bandwidth, spec)


def _power_params(args, spec):
    # site overhead from the preset, amplifier size from the actual PA
    return replace(BS_PRESETS[args.bs_type], p_max_out=spec.p_max_out)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_se_sweep(args):
    spec = _resolve_pa(args.pa)
    scen = _make_scenario(args, spec)
    data = se_sweep(scen, args.xi_grid)
    params = _scenario_params(args, spec) | _grid_params(args.xi_grid)
    params["gamma_db"] = 10.0 * math.log10(scen.gamma)
    columns = ("xi", "se_exact", "se_ideal", "se_ibo", "pr_clip")
    rows = list(zip(*(data[c] for c in columns)))
    _write_table(args, args.out, params, columns, rows)
    best = int(np.argmax(data["se_exact"]))
    _note(args, f"max SE {_fmt(data['se_exact'][best])} b/s/Hz at xi = {_fmt(data['xi'][best])}")
    return 0


def _cmd_ee_sweep(args):
    spec = _resolve_pa(args.pa)
    scen = _make_scenario(args, spec)
    power = _power_params(args, spec)
    data = ee_sweep(scen, power, args.xi_grid, n_ways=args.n_ways)
    params = _scenario_params(args, spec) | _grid_params(args.xi_grid)
    params.update(bs_type=args.bs_type, n_ways=args.n_ways, p_fix_w=power.p_fix, c_slope=power.c)
    columns = ("xi", "ee_exact", "ee_linear", "ee_ideal", "pc_watts")
    rows = list(zip(*(data[c] for c in columns)))
    _write_table(args, args.out, params, columns, rows)
    best = int(np.argmax(data["ee_exact"]))
    _note(args, f"max EE {_fmt(data['ee_exact'][best])} b/J at xi = {_fmt(data['xi'][best])}")
    return 0


def _closed_form(evaluate):
    """(value, notes) of a closed form, evaluate() giving its value.

    Outside the form's domain (ValueError or InfeasibleError) value is None
    and a note names the error; each warning it gives, such as a candidate
    replaced by a piece endpoint, is a note too rather than a Python warning
    on stderr. Each note reads after the form's name.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, notes = evaluate(), []
        except (ValueError, InfeasibleError) as exc:
            value, notes = None, [f"is outside its domain: {type(exc).__name__}: {exc}"]
    return value, [f"warns: {w.message}" for w in caught] + notes


def _cmd_tradeoff(args):
    spec = _resolve_pa(args.pa)
    scen = _make_scenario(args, spec)
    power = _power_params(args, spec)
    data = ee_sweep(scen, power, args.xi_grid, n_ways=args.n_ways)
    window, notes = _closed_form(lambda: pareto_window(scen, power, n_ways=args.n_ways))
    params = _scenario_params(args, spec) | _grid_params(args.xi_grid)
    window_lo, window_hi = window if window is not None else ("", "")
    params.update(
        bs_type=args.bs_type, n_ways=args.n_ways, window_lo=window_lo, window_hi=window_hi
    )
    columns = ("xi", "se_exact", "ee_exact", "se_approx", "ee_approx")
    se_approx = se_ibo(data["xi"], scen)
    rows = list(zip(data["xi"], data["se_exact"], data["ee_exact"], se_approx, data["ee_linear"]))
    _write_table(args, args.out, params, columns, rows)
    for note in notes:
        _note(args, f"tradeoff window {note}")
    if window is not None:
        _note(args, f"tradeoff window: xi in [{_fmt(window[0])}, {_fmt(window[1])}]")
    return 0


def _closed_form_row(quantity, closed_form):
    """(quantity, "closed-form", xi, piece, notes), closed_form() giving
    (xi, piece); outside the form's domain xi and piece are empty. notes as
    _closed_form gives them."""
    value, notes = _closed_form(closed_form)
    xi, piece = value if value is not None else ("", "")
    return (quantity, "closed-form", xi, piece, notes)


def _cmd_optimal_xi(args):
    spec = _resolve_pa(args.pa)
    scen = _make_scenario(args, spec)
    power = _power_params(args, spec)
    params = _scenario_params(args, spec)
    params.update(bs_type=args.bs_type, n_ways=args.n_ways)
    columns = ("quantity", "method", "xi", "piece")
    rows = [
        ("xi_se", "exact", xi_se_max(scen), "", []),
        _closed_form_row("xi_se", lambda: (xi_se_opt(scen), "")),
        ("xi_ee", "exact", *xi_ee_max(scen, power, n_ways=args.n_ways), []),
        _closed_form_row("xi_ee", lambda: xi_ee_opt(scen, power, n_ways=args.n_ways)),
    ]
    for quantity, label, value, piece, notes in rows:
        suffix = f" (piece {piece})" if piece != "" else ""
        print(f"{quantity} {label}: {_fmt(value)}{suffix}".rstrip())
        for note in notes:
            print(f"# {quantity} {label} {note}")
    if args.out is not None:
        rows = [row[:4] for row in rows]
        _write_table(args, args.out, params, columns, rows)
    return 0


def _make_arm(args, pa_token):
    spec = _resolve_pa(pa_token)
    scen = _make_scenario(args, spec)
    return switched_arm(spec, scen, BS_PRESETS[args.bs_type])


_PAS_PRESETS = (
    ("ideal", Duplex.TDD, 0.0, 0.0),
    ("tdd-gs1db", Duplex.TDD, 0.0, 1.0),
    ("fdd-eps10us", Duplex.FDD, 1e-5, 1.0),
    ("fdd-eps1ms", Duplex.FDD, 1e-3, 1.0),
)


def _cmd_pas_frontier(args):
    low = _make_arm(args, args.pa_low)
    high = _make_arm(args, args.pa_high)
    explicit = not (args.duplex is None and args.eps is None and args.gs_db is None)
    if explicit:
        runs = [
            (
                "custom",
                Duplex(args.duplex or "fdd"),
                args.eps if args.eps is not None else 0.0,
                args.gs_db if args.gs_db is not None else 0.0,
            )
        ]
    else:
        runs = list(_PAS_PRESETS)
    if args.targets is None:
        high_se = se_curve(args.xi_grid, high.scenario)
        targets = np.linspace(0.2, 1.0, 17) * max(high_se)
    else:
        targets = np.asarray(args.targets, dtype=float)
    stem = args.out if args.out is not None else "pas-frontier"
    for ext in (".csv", ".json"):
        if stem.endswith(ext):
            stem = stem[: -len(ext)]
    for name, duplex, eps, gs_db in runs:
        config = PasConfig(
            pa_low=low,
            pa_high=high,
            frame_length=args.frame_length,
            frame_count=args.frames,
            insertion_loss_db=gs_db,
            switching_time=eps,
            duplex=duplex,
            n_ways=args.n_ways,
        )
        points = pas_frontier(targets, config, args.xi_grid, xi_mode=args.xi_mode)
        params = _channel_params(args) | _grid_params(args.xi_grid) | {
            "pa_low": low.spec.model_name,
            "pa_high": high.spec.model_name,
            "p_fix_low_w": low.power.p_fix,
            "p_fix_high_w": high.power.p_fix,
            "bs_type": args.bs_type,
            "n_ways": args.n_ways,
            "duplex": duplex.value,
            "eps_s": eps,
            "gs_db": gs_db,
            "frames": args.frames,
            "frame_length_s": args.frame_length,
            "xi_mode": args.xi_mode,
            "variant": name,
        }
        columns = ("se_target", "ee", "kappa", "xi1", "xi2", "feasible")
        rows = [(p.se_target, p.ee, p.kappa, p.xi1, p.xi2, p.feasible) for p in points]
        if not explicit:
            out = f"{stem}-{name}.{args.format}"
        elif args.out is not None:
            out = f"{stem}.{args.format}"
        else:
            out = None
        _write_table(args, out, params, columns, rows)
    return 0


def _cmd_mc_validate(args):
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    if not args.xi:
        raise ValueError("xi needs at least one loading factor")
    check_loading(args.xi)
    spec = _resolve_pa(args.pa)
    scen = _make_scenario(args, spec)
    # validate the frame shape before --n-sub divides the sample count
    config = FrameConfig(n_subcarriers=args.n_sub, cp_length=args.cp, n_frames=1, seed=args.seed)
    frames = max(1, -(-args.samples // args.n_sub))
    config = replace(config, n_frames=frames)
    n_samples = frames * args.n_sub
    params = _scenario_params(args, spec)
    params.update(seed=args.seed, samples=n_samples, n_subcarriers=args.n_sub, cp=args.cp)
    columns = ("xi", "samples", "ks_distance", "mi_estimate", "se_analytic", "error_bits")
    rows = []
    for xi, (ks, mi) in zip(args.xi, _link_statistics(config, args.xi, scen)):
        se_val = se(xi, scen)
        rows.append((xi, n_samples, ks, mi, se_val, mi - se_val))
        _note(
            args,
            f"xi={_fmt(xi)}: ks={_fmt(ks)} mi={_fmt(mi)} "
            f"se={_fmt(se_val)} err={_fmt(mi - se_val)}",
        )
    _write_table(args, args.out, params, columns, rows)
    return 0


def _cmd_datasheet(args):
    specs = embedded_datasheet() if args.file is None else load_datasheet(args.file)
    params = {"source": args.file if args.file is not None else "embedded"}
    columns = ("model", "p_max_out_w", "gain", "p_max_in_w", "drain_efficiency", "turn_on_s")
    etas = [drain_efficiency(spec) for spec in specs]
    rows = [
        (
            spec.model_name,
            spec.p_max_out,
            spec.gain,
            spec.p_max_in,
            eta if eta is not None else "",
            spec.turn_on_time if spec.turn_on_time is not None else "",
        )
        for spec, eta in zip(specs, etas)
    ]
    _write_table(args, args.out, params, columns, rows)
    rated = [eta for eta in etas if eta is not None]
    if args.out is None and rated:
        _note(args, f"median drain efficiency: {_fmt(float(np.median(rated)))}")
    return 0


def _fail(exc, **context):
    """Write exc and context as a one-line JSON record on stderr; exit status 2."""
    record = {"error": type(exc).__name__, "message": str(exc), **context}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return 2


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _effective_argv(argv)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    args = _build_parser().parse_args(argv)
    try:
        # one memo per invocation: the pas-frontier probe and its variants
        # share their SE curves
        with se_memo():
            return args.run(args)
    except Exception as exc:  # fail with a machine-readable record
        return _fail(exc, command=args.command)


if __name__ == "__main__":
    sys.exit(main())
