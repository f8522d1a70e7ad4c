"""Command-line front end: spectra, dynamics, N00N statistics, validation.

Every run resolves its configuration from built-in defaults, then an
optional JSON config file, then explicit flags, and writes plot-ready CSV
files next to JSON sidecars echoing the full resolved configuration.
Identical configurations produce byte-identical output.

Exit codes: 0 ok, 2 configuration error (including a time grid too large
to allocate), 3 numerical failure, 4 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, effective, harmonic, jc, rpm
from .core import ModelParams, NumericalFailureError, edge_lines, smoothed_density
from .dynamics import default_time_grid, evolve, first_transfer_time
from .entanglement import default_sampling_window, sample_joint, score_samples
from .validation import run_checks

MODELS = ("jc", "harmonic", "anharmonic-rpm", "anharmonic-oracle")

# dynamics CSV columns per model, after an optional "harmonic_" prefix
AMPLITUDE_SUFFIXES = (
    "return_re", "return_im", "return_abs",
    "transition_re", "transition_im", "transition_abs",
)

# each config key: its default; the kind of value it holds (a number, an
# integral number, a string, or, as a one-element tuple, a list of these;
# where the default is None, also null); and the help of its flag, None for
# keys that only a config file sets
_KEYS = {
    "model": ("anharmonic-oracle", str, " | ".join(MODELS)),
    "N": (100, int, "Total photon number."),
    "g": (1.2, float, "Atom-photon coupling."),
    "J": (0.8, float, "Tunneling rate."),
    "omega0": (1.0, float, "Cavity frequency."),
    "sigma": (1, int, "Dressed branch, +1 or -1."),
    "delta": (0.0, float, None),
    "epsilon": (None, float, "Lorentzian broadening for densities."),
    "tmax": (None, float, "Time window length."),
    "dt": (None, float, "Time step."),
    "bins": (50, int, "Histogram bins per axis."),
    "points": (2000, int, None),
    "grid": (None, (float,), None),
    "noon_threshold": (0.55, float, None),
    "transfer_threshold": (0.5, float, None),
    "checks": (None, (str,), None),
    "sweep_n": (None, (int,), None),
}
DEFAULTS = {key: default for key, (default, _, _) in _KEYS.items()}
_KIND_NAMES = {float: "a number", int: "an integer", str: "a string",
               (float,): "a list of numbers", (int,): "a list of integers",
               (str,): "a list of strings"}

# rows of a CSV file converted to Python floats at once
_CSV_ROWS = 1024


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(loaded) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return loaded


def _has_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    if kind is str:
        return isinstance(value, str)
    # JSON true and false are not numbers
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return number and (kind is float or isinstance(value, int) or float(value).is_integer())


def _resolve(config_path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(_load_config(config_path))
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key, value in cfg.items():
        default, kind, _ = _KEYS[key]
        if not (value is None and default is None or _has_kind(value, kind)):
            raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    if cfg["model"] not in MODELS:
        raise ValueError(f"model must be one of {', '.join(MODELS)}, got {cfg['model']!r}")
    return cfg


def _params(cfg: dict) -> ModelParams:
    return ModelParams(
        n_photons=cfg["N"],
        omega0=cfg["omega0"],
        g=cfg["g"],
        j_tun=cfg["J"],
        sigma=cfg["sigma"],
        delta=cfg["delta"],
    )


def _write_csv(path: Path, columns: list[tuple[str, np.ndarray]]):
    header = ",".join(name for name, _ in columns)
    arrays = [np.asarray(col, dtype=float) for _, col in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        # Python floats format faster than NumPy scalars, to the same text;
        # converting a block of rows at a time keeps few of them alive
        for lo in range(0, arrays[0].size, _CSV_ROWS):
            for row in zip(*(a[lo:lo + _CSV_ROWS].tolist() for a in arrays)):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar(command: str, cfg: dict, extra: dict | None = None) -> dict:
    payload = {"command": command, "version": __version__, "config": cfg}
    if extra:
        payload.update(extra)
    return payload


def _line_spectra(model: str, params: ModelParams):
    if model == "jc":
        return jc.rabi_line_spectra(params)
    if model == "harmonic":
        return harmonic.harmonic_line_spectra(params)
    if model == "anharmonic-oracle":
        return effective.parity_chain_spectra(effective.build_sector_hamiltonian(params))
    raise ValueError(
        f"model {model!r} provides no line spectrum; it evaluates broadened "
        "densities only (set epsilon)"
    )


def _diagnostics(lines) -> dict:
    """Deterministic figures of an :func:`edge_lines` table, for the sidecars:
    its lines, its exact-zero ``weight00`` (underflow, or a line the edge state
    does not reach) and the departure of their sum from one."""
    energies, w00, _ = lines
    return {
        "lines": int(energies.size),
        "zero_weight_lines": int(np.count_nonzero(w00 == 0)),
        "weight_sum_defect": float(np.sum(w00)) - 1.0,
    }


def _density_diagnostics(rhon0) -> dict:
    """Deterministic figures of a recursion density, for the sidecars: the grid
    points where the written ``rhoN0`` is exactly 0, the cross element
    ``b`` of the pair recursion having underflowed there."""
    zeros = rhon0.size - np.count_nonzero(rhon0)
    return {"points": int(rhon0.size), "zero_cross_points": int(zeros)}


def _default_energy_bounds(model: str, params: ModelParams, epsilon: float):
    if model == "jc":
        energies, _, _ = edge_lines(*_line_spectra(model, params))
        lo, hi = float(energies[0]), float(energies[-1])
    else:
        h = effective.build_sector_hamiltonian(params)
        reach = 2.0 * float(np.max(np.abs(h.offdiag), initial=0.0))
        lo = float(np.min(h.diag)) - reach
        hi = float(np.max(h.diag)) + reach
    pad = max(1.0, 5.0 * epsilon)
    return lo - pad, hi + pad


def _energy_grid(cfg: dict, params: ModelParams) -> np.ndarray:
    points = int(cfg["points"])
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if cfg["grid"] is not None:
        bounds = cfg["grid"]
        if len(bounds) != 2:
            raise ValueError("grid must be a [min, max] pair")
        lo, hi = float(bounds[0]), float(bounds[1])
        if not hi > lo:
            raise ValueError(f"grid upper bound must exceed lower bound, got {bounds}")
    else:
        lo, hi = _default_energy_bounds(cfg["model"], params, cfg["epsilon"])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


def _smoothed_pair(model: str, params: ModelParams, grid: np.ndarray, epsilon: float):
    if model == "anharmonic-rpm":
        return rpm.rpm_spectra(params, grid, epsilon)
    return smoothed_density(*_line_spectra(model, params), grid, epsilon)


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _common_options(f):
    options = [
        click.option("--config", "config_path", default=None,
                     type=click.Path(exists=False, dir_okay=False),
                     help="JSON config file; flags override its fields."),
        click.option("--out", "out", default=".",
                     type=click.Path(file_okay=False),
                     help="Output directory (created if missing)."),
    ] + [
        click.option(f"--{key}", key, default=None, type=kind, help=flag_help)
        for key, (_, kind, flag_help) in _KEYS.items() if flag_help is not None
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _fail(exc: Exception | str, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    try:
        fn()
    except NumericalFailureError as exc:
        _fail(exc, 3)
    except OverflowError as exc:
        _fail(f"float overflow: {exc}", 3)
    except ValueError as exc:
        _fail(exc, 2)
    except MemoryError as exc:
        _fail(f"out of memory: {exc}", 2)


@click.group()
@click.version_option(version=__version__, prog_name="cavity-rpm")
def main():
    """Spectra, transfer dynamics and N00N statistics of coupled cavities."""


@main.command()
@_common_options
@click.option("--compare", is_flag=True,
              help="Evaluate recursion and eigensolver densities on one grid "
                   "and report their largest difference.")
def spectrum(config_path, out, compare, **flag_values):
    """Write line spectra or broadened densities of the edge states."""

    def run():
        cfg = _resolve(config_path, flag_values)
        params = _params(cfg)
        out_path = _out_dir(out)
        if compare:
            if cfg["epsilon"] is None:
                raise ValueError("--compare needs epsilon to evaluate densities")
            grid = _energy_grid({**cfg, "model": "anharmonic-rpm"}, params)
            r00, rn0 = _smoothed_pair("anharmonic-rpm", params, grid, cfg["epsilon"])
            o00, on0 = _smoothed_pair("anharmonic-oracle", params, grid, cfg["epsilon"])
            csv_path = out_path / "spectrum_compare.csv"
            _write_csv(csv_path, [
                ("energy", grid),
                ("rho00_rpm", r00), ("rhoN0_rpm", rn0),
                ("rho00_oracle", o00), ("rhoN0_oracle", on0),
            ])
            report = {
                "linf_rho00": float(np.max(np.abs(r00 - o00))),
                "linf_rhoN0": float(np.max(np.abs(rn0 - on0))),
                "grid_points": int(grid.size),
            }
            _write_json(csv_path.with_suffix(".json"), _sidecar("spectrum", cfg, {
                "compare": report,
                "diagnostics": {"anharmonic-rpm": _density_diagnostics(rn0)},
            }))
            click.echo(f"wrote {csv_path}")
            return
        extra = None
        if cfg["epsilon"] is None:
            lines = edge_lines(*_line_spectra(cfg["model"], params))
            csv_path = out_path / f"spectrum_{cfg['model']}.csv"
            _write_csv(csv_path, list(zip(("energy", "weight00", "weightN0"), lines)))
            extra = {"diagnostics": {cfg["model"]: _diagnostics(lines)}}
        else:
            grid = _energy_grid(cfg, params)
            rho00, rhon0 = _smoothed_pair(cfg["model"], params, grid, cfg["epsilon"])
            csv_path = out_path / f"spectrum_{cfg['model']}.csv"
            _write_csv(csv_path, [
                ("energy", grid), ("rho00", rho00), ("rhoN0", rhon0),
            ])
            if cfg["model"] == "anharmonic-rpm":
                extra = {"diagnostics": {"anharmonic-rpm": _density_diagnostics(rhon0)}}
        _write_json(csv_path.with_suffix(".json"), _sidecar("spectrum", cfg, extra))
        click.echo(f"wrote {csv_path}")

    _guarded(run)


def _amplitude_columns(prefix: str, ret, tra) -> list[tuple[str, np.ndarray]]:
    values = (
        ret.values.real, ret.values.imag, np.abs(ret.values),
        tra.values.real, tra.values.imag, np.abs(tra.values),
    )
    return [(prefix + name, v) for name, v in zip(AMPLITUDE_SUFFIXES, values)]


@main.command()
@_common_options
@click.option("--compare", is_flag=True,
              help="Add the harmonic baseline at the same N, J and omega0.")
@click.option("--first-transfer", "first_transfer", is_flag=True,
              help="Also write the first transition-peak time per model.")
def dynamics(config_path, out, compare, first_transfer, **flag_values):
    """Write return and transition amplitude time series."""

    def run():
        cfg = _resolve(config_path, flag_values)
        params = _params(cfg)
        if cfg["model"] == "anharmonic-rpm":
            raise ValueError(
                "dynamics needs a line-resolved model "
                "(jc, harmonic or anharmonic-oracle)"
            )
        out_path = _out_dir(out)
        t_default, dt_default = default_time_grid(params)
        t_max = t_default if cfg["tmax"] is None else float(cfg["tmax"])
        dt = dt_default if cfg["dt"] is None else float(cfg["dt"])
        if t_max < 0:
            raise ValueError(f"tmax must be >= 0, got {t_max}")
        if first_transfer and t_max == 0:
            raise ValueError("first-transfer needs a non-empty time window")
        models = [cfg["model"]]
        if compare and cfg["model"] != "harmonic":
            models.append("harmonic")
        csv_path = out_path / f"dynamics_{cfg['model']}.csv"
        prefixes = {m: "" if m == cfg["model"] else "harmonic_" for m in models}
        transfer: dict[str, float | None] = {}
        diagnostics: dict[str, dict] = {}
        if t_max == 0:
            names = ["t"] + [prefixes[m] + c for m in models for c in AMPLITUDE_SUFFIXES]
            _write_csv(csv_path, [(name, ()) for name in names])
        else:
            columns: list[tuple[str, np.ndarray]] = []
            for model in models:
                halves = _line_spectra(model, params)
                diagnostics[model] = _diagnostics(edge_lines(*halves))
                ret, tra = evolve(*halves, t_max, dt)
                if not columns:
                    columns.append(("t", ret.times))
                columns += _amplitude_columns(prefixes[model], ret, tra)
                transfer[model] = first_transfer_time(tra, cfg["transfer_threshold"])
            _write_csv(csv_path, columns)
        extra = {"t_max": t_max, "dt": dt, "diagnostics": diagnostics}
        if first_transfer:
            transfer_path = out_path / "first_transfer.json"
            _write_json(transfer_path, {
                "threshold": cfg["transfer_threshold"],
                "times": transfer,
                "version": __version__,
            })
            extra["first_transfer"] = str(transfer_path)
        _write_json(csv_path.with_suffix(".json"), _sidecar("dynamics", cfg, extra))
        click.echo(f"wrote {csv_path}")

    _guarded(run)


def _noon_single(cfg: dict, params: ModelParams):
    model = cfg["model"]
    if model not in ("harmonic", "anharmonic-oracle"):
        raise ValueError(
            "noon statistics need sector line spectra; "
            "use model harmonic or anharmonic-oracle"
        )
    halves = _line_spectra(model, params)
    lines = edge_lines(*halves)
    t_auto, dt_auto = default_sampling_window(params, lines[0])
    t_max = t_auto if cfg["tmax"] is None else float(cfg["tmax"])
    dt = dt_auto if cfg["dt"] is None else float(cfg["dt"])
    ret, tra = evolve(*halves, t_max, dt)
    hist = sample_joint(ret, tra, int(cfg["bins"]))
    feasibility = score_samples(ret, tra, cfg["noon_threshold"])
    summary = {**dataclasses.asdict(feasibility), "t_max": t_max, "dt": dt}
    return hist, summary, {model: _diagnostics(lines)}


def _write_noon(out_path: Path, cfg: dict, suffix: str, hist, summary, diagnostics):
    centers = hist.bin_centers()
    c0 = np.repeat(centers, hist.size)
    cn = np.tile(centers, hist.size)
    csv_path = out_path / f"noon_{cfg['model']}{suffix}.csv"
    _write_csv(csv_path, [
        ("c0_center", c0), ("cN_center", cn), ("mass", hist.bins.ravel()),
    ])
    metadata = {
        "axes": "moduli",
        "bins": hist.size,
        "bin_width": hist.bin_width,
    }
    _write_json(csv_path.with_suffix(".json"), _sidecar("noon", cfg, {
        "summary": summary, "metadata": metadata, "diagnostics": diagnostics,
    }))
    return csv_path


@main.command()
@_common_options
def noon(config_path, out, **flag_values):
    """Histogram joint edge-state amplitudes and score N00N reachability."""

    def run():
        cfg = _resolve(config_path, flag_values)
        out_path = _out_dir(out)
        sweep = cfg["sweep_n"]
        if sweep is None:
            params = _params(cfg)
            csv_path = _write_noon(out_path, cfg, "", *_noon_single(cfg, params))
            click.echo(f"wrote {csv_path}")
            return
        if not sweep:
            raise ValueError("sweep_n must be a non-empty list of photon numbers")
        cfgs = [{**cfg, "N": int(n), "sweep_n": None} for n in sweep]
        results = [_noon_single(c, _params(c)) for c in cfgs]
        for sub_cfg, result in zip(cfgs, results):
            csv_path = _write_noon(out_path, sub_cfg, f"_N{sub_cfg['N']}", *result)
            click.echo(f"wrote {csv_path}")

    _guarded(run)


@main.command()
@_common_options
def validate(config_path, out, **flag_values):
    """Run the named cross-check suite and write a pass/fail report."""

    def run():
        cfg = _resolve(config_path, flag_values)
        out_path = _out_dir(out)
        names = cfg["checks"]
        if names is not None and not names:
            raise ValueError("checks must be a non-empty list of check names")
        report = run_checks(names)
        report_path = out_path / "validation_report.json"
        _write_json(report_path, _sidecar("validate", cfg, report.as_dict()))
        for result in report.results:
            status = "pass" if result.passed else "FAIL"
            click.echo(f"{status}  {result.name}: {result.detail}")
        click.echo(f"wrote {report_path}")
        if not report.passed:
            sys.exit(4)

    _guarded(run)


if __name__ == "__main__":
    main()
