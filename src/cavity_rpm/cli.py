"""Command-line front end: spectra, dynamics, N00N statistics, validation.

Every run resolves its configuration from built-in defaults, then an
optional JSON config file, then explicit flags, and writes plot-ready CSV
files next to JSON sidecars echoing the full resolved configuration.
Identical configurations produce byte-identical output.

Exit codes: 0 ok, 2 configuration error (including a non-finite value, a
sector matrix entry or closed-form line energy that overflows and a time
grid too large to allocate), 3 numerical failure, 4 validation failure.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__, effective, harmonic, jc, rpm
from .core import ModelParams, NumericalFailureError, edge_lines, smoothed_density
from .dynamics import default_time_grid, evolve, first_transfer_time
from .entanglement import default_sampling_window, noon_statistics
from .validation import run_checks


class _Model(NamedTuple):
    """All the command line knows of a model: its line spectra, None where it
    has recursion densities only, and whether it is a two-cavity sector model,
    whose matrix sets its default energy grid (``noon`` takes those with lines)."""
    lines: Callable | None
    sector: bool


# each entry calls the library through its module at run time, so that a
# function replaced on the module (a tracing span, a test) is the one run
MODELS = {
    "jc": _Model(lambda params: jc.rabi_line_spectra(params), sector=False),
    "harmonic": _Model(lambda params: harmonic.harmonic_line_spectra(params), sector=True),
    "anharmonic-rpm": _Model(None, sector=True),
    # the parity chains, not the dense oracle they are checked against
    "anharmonic-oracle": _Model(lambda params: effective.parity_chain_spectra(
        effective.build_sector_hamiltonian(params)), sector=True),
}

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
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               (float,): "a list of finite numbers", (int,): "a list of integers",
               (str,): "a list of strings"}

# rows of a CSV file converted to Python floats at once
_CSV_ROWS = 1024


def _repeated(items) -> list:
    """The entries that ``items`` holds more than once, sorted."""
    return sorted(item for item, count in Counter(items).items() if count > 1)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}

    def unique_keys(pairs):
        repeated = _repeated(k for k, _ in pairs)
        if repeated:
            raise ValueError(f"{path}: duplicate config keys: {', '.join(repeated)}")
        return dict(pairs)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
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
    # JSON true and false are not numbers; no key takes NaN, an infinity (JSON
    # NaN, Infinity, 1e999; a flag's nan, inf) or an integer beyond double range
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not number or not abs(value) <= sys.float_info.max:
        return False
    return kind is float or isinstance(value, int) or float(value).is_integer()


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
    # no model has a detuning; the key stays for configs that spell "delta": 0.0
    if cfg["delta"] != 0:
        raise ValueError(f"delta must be 0 (every model is resonant), got {cfg['delta']!r}")
    return cfg


def _params(cfg: dict) -> ModelParams:
    return ModelParams(
        n_photons=cfg["N"],
        omega0=cfg["omega0"],
        g=cfg["g"],
        j_tun=cfg["J"],
        sigma=cfg["sigma"],
    )


def _write_csv(path: Path, columns: list[tuple[str, np.ndarray]]):
    """Write ``columns`` of numbers, each as ``"%.17g"``, or of ``str``, each
    as it is."""
    header = ",".join(name for name, _ in columns)
    arrays = [np.asarray(col) for _, col in columns]
    text = [a.dtype.kind == "U" for a in arrays]
    arrays = [a if t else a.astype(float, copy=False) for a, t in zip(arrays, text)]
    # "%.17g" gives the text of format(v, ".17g"), also for -0, inf and nan
    line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        # Python floats format faster than NumPy scalars, to the same text;
        # converting a block of rows at a time keeps few of them alive, and
        # the block's lines are formatted by one % of the repeated line
        for lo in range(0, arrays[0].size, _CSV_ROWS):
            block = [a[lo:lo + _CSV_ROWS].tolist() for a in arrays]
            values = tuple(itertools.chain.from_iterable(zip(*block)))
            fh.write((line * len(block[0])) % values)


def _write_json(path: Path, payload: dict):
    # RFC 8259 has no NaN or Infinity: refuse them before the file is opened
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _emit(out_path: Path, stem: str, columns, command: str, cfg: dict, extra: dict):
    """Write ``stem.csv`` of ``columns`` and its sidecar ``stem.json`` (the
    command, version and resolved config, with ``extra``), and report it."""
    csv_path = out_path / f"{stem}.csv"
    _write_csv(csv_path, columns)
    _write_json(csv_path.with_suffix(".json"),
                {"command": command, "version": __version__, "config": cfg, **extra})
    click.echo(f"wrote {csv_path}")


def _require(model: str, test, message: str):
    """Refuse ``model`` unless ``test`` passes its entry, naming those it passes."""
    if not test(MODELS[model]):
        *rest, last = [name for name, entry in MODELS.items() if test(entry)]
        raise ValueError(message.format(f"{', '.join(rest)} or {last}" if rest else last))


def _line_spectra(model: str, params: ModelParams):
    if MODELS[model].lines is None:
        raise ValueError(f"model {model!r} provides no line spectrum; it evaluates "
                         "broadened densities only (set epsilon)")
    return MODELS[model].lines(params)


def _densities(model: str, params: ModelParams, grid: np.ndarray, epsilon: float):
    """``(rho00, rhoN0)``: the recursion's for a model without lines, else its lines'."""
    if MODELS[model].lines is None:
        return rpm.rpm_spectra(params, grid, epsilon)
    return smoothed_density(*_line_spectra(model, params), grid, epsilon)


def _lines(model: str, params: ModelParams):
    """``(halves, table, diagnostics)``: the model's parity halves, their
    :func:`edge_lines` table, and its deterministic figures for the sidecars:
    the table's lines, its exact-zero ``weight00`` (underflow, or a line the
    edge state does not reach) and the departure of their sum from one, and
    that of each half's weights."""
    halves = _line_spectra(model, params)
    energies, w00, _ = table = edge_lines(*halves)
    sym, anti = (float(np.sum(half.weights)) - 1.0 for half in halves)
    return halves, table, {
        "lines": int(energies.size),
        "zero_weight_lines": int(np.count_nonzero(w00 == 0)),
        "weight_sum_defect": float(np.sum(w00)) - 1.0,
        "half_weight_sum_defects": {"sym": sym, "anti": anti},
    }


def _density_diagnostics(rhon0) -> dict:
    """Deterministic figures of a recursion density, for the sidecars: the grid
    points where the written ``rhoN0`` is exactly 0, the imaginary part of
    the pair recursion's cross element ``b`` having underflowed there."""
    zeros = rhon0.size - np.count_nonzero(rhon0)
    return {"points": int(rhon0.size), "zero_cross_points": int(zeros)}


def _window(cfg: dict, t_max: float, dt: float) -> tuple[float, float]:
    """The config's ``tmax`` and ``dt`` where set, else the given ones."""
    return (t_max if cfg["tmax"] is None else float(cfg["tmax"]),
            dt if cfg["dt"] is None else float(cfg["dt"]))


def _energy_grid(cfg: dict, params: ModelParams, model: str) -> np.ndarray:
    """``grid``, or the span of the sector matrix or else of the lines, padded."""
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
        if MODELS[model].sector:
            h = effective.build_sector_hamiltonian(params)
            reach = 2.0 * float(np.max(np.abs(h.offdiag), initial=0.0))
            lo, hi = float(np.min(h.diag)) - reach, float(np.max(h.diag)) + reach
        else:
            energies, _, _ = edge_lines(*_line_spectra(model, params))
            lo, hi = float(energies[0]), float(energies[-1])
        pad = max(1.0, 5.0 * cfg["epsilon"])
        lo, hi = lo - pad, hi + pad
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got [{lo}, {hi}]")
    # finite bounds whose span overflows would make every step NaN
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid span overflowed: hi - lo must be finite, got [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


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


def _exit_codes(command):
    """``command`` with its failures mapped to the documented exit codes."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except NumericalFailureError as exc:
            _fail(exc, 3)
        except OverflowError as exc:
            _fail(f"float overflow: {exc}", 3)
        except ValueError as exc:
            _fail(exc, 2)
        except MemoryError as exc:
            _fail(f"out of memory: {exc}", 2)

    return run


@click.group()
@click.version_option(version=__version__, prog_name="cavity-rpm")
def main():
    """Spectra, transfer dynamics and N00N statistics of coupled cavities."""


@main.command()
@_common_options
@click.option("--compare", is_flag=True,
              help="Evaluate recursion and eigensolver densities on one grid "
                   "and report their largest difference.")
@_exit_codes
def spectrum(config_path, out, compare, **flag_values):
    """Write line spectra or broadened densities of the edge states."""
    cfg = _resolve(config_path, flag_values)
    params = _params(cfg)
    out_path = _out_dir(out)
    if compare:
        if cfg["epsilon"] is None:
            raise ValueError("--compare needs epsilon to evaluate densities")
        # the recursion against the parity chains, whatever the model
        grid = _energy_grid(cfg, params, "anharmonic-rpm")
        r00, rn0 = _densities("anharmonic-rpm", params, grid, cfg["epsilon"])
        o00, on0 = _densities("anharmonic-oracle", params, grid, cfg["epsilon"])
        report = {
            "linf_rho00": float(np.max(np.abs(r00 - o00))),
            "linf_rhoN0": float(np.max(np.abs(rn0 - on0))),
            "grid_points": int(grid.size),
        }
        _emit(out_path, "spectrum_compare", [
            ("energy", grid),
            ("rho00_rpm", r00), ("rhoN0_rpm", rn0),
            ("rho00_oracle", o00), ("rhoN0_oracle", on0),
        ], "spectrum", cfg, {
            "compare": report,
            "diagnostics": {"anharmonic-rpm": _density_diagnostics(rn0)},
        })
        return
    model, extra = cfg["model"], {}
    if cfg["epsilon"] is None:
        _, table, diagnostics = _lines(model, params)
        columns = list(zip(("energy", "weight00", "weightN0"), table))
        extra = {"diagnostics": {model: diagnostics}}
    else:
        grid = _energy_grid(cfg, params, model)
        rho00, rhon0 = _densities(model, params, grid, cfg["epsilon"])
        columns = [("energy", grid), ("rho00", rho00), ("rhoN0", rhon0)]
        if MODELS[model].lines is None:
            extra = {"diagnostics": {model: _density_diagnostics(rhon0)}}
    _emit(out_path, f"spectrum_{model}", columns, "spectrum", cfg, extra)


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
@_exit_codes
def dynamics(config_path, out, compare, first_transfer, **flag_values):
    """Write return and transition amplitude time series."""
    cfg = _resolve(config_path, flag_values)
    params = _params(cfg)
    _require(cfg["model"], lambda m: m.lines is not None,
             "dynamics needs a line-resolved model ({})")
    out_path = _out_dir(out)
    t_max, dt = _window(cfg, *default_time_grid(params))
    if t_max < 0:
        raise ValueError(f"tmax must be >= 0, got {t_max}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if first_transfer and t_max == 0:
        raise ValueError("first-transfer needs a non-empty time window")
    models = [cfg["model"]]
    # the harmonic baseline, whatever the model
    if compare and cfg["model"] != "harmonic":
        models.append("harmonic")
    prefixes = dict(zip(models, ("", "harmonic_")))
    transfer: dict[str, float | None] = {}
    diagnostics: dict[str, dict] = {}
    if t_max == 0:
        names = ["t"] + [prefixes[m] + c for m in models for c in AMPLITUDE_SUFFIXES]
        columns = [(name, ()) for name in names]
    else:
        columns = []
        for model in models:
            halves, _, diagnostics[model] = _lines(model, params)
            ret, tra = evolve(*halves, t_max, dt)
            if not columns:
                columns.append(("t", ret.times))
            columns += _amplitude_columns(prefixes[model], ret, tra)
            transfer[model] = first_transfer_time(tra, cfg["transfer_threshold"])
    extra = {"t_max": t_max, "dt": dt, "diagnostics": diagnostics}
    if first_transfer:
        transfer_path = out_path / "first_transfer.json"
        _write_json(transfer_path, {
            "threshold": cfg["transfer_threshold"],
            "times": transfer,
            "version": __version__,
        })
        extra["first_transfer"] = transfer_path.name
    _emit(out_path, f"dynamics_{cfg['model']}", columns, "dynamics", cfg, extra)


def _noon_single(cfg: dict, params: ModelParams):
    """``(columns, extra)`` of the N00N histogram CSV of ``cfg`` and of its sidecar."""
    model = cfg["model"]
    _require(model, lambda m: m.sector and m.lines is not None,
             "noon statistics need sector line spectra; use model {}")
    halves, (energies, w00, wn0), diagnostics = _lines(model, params)
    t_max, dt = _window(cfg, *default_sampling_window(params, energies))
    hist, feasibility, (c0_sq, cn_sq) = noon_statistics(
        *halves, t_max, dt, int(cfg["bins"]), cfg["noon_threshold"])
    # each centre's text once, written as it is in every row that holds it
    centers = np.array(["%.17g" % c for c in hist.bin_centers().tolist()])
    columns = [
        ("c0_center", np.repeat(centers, hist.size)),
        ("cN_center", np.tile(centers, hist.size)),
        ("mass", hist.bins.ravel()),
    ]
    return columns, {
        "summary": {**dataclasses.asdict(feasibility), "t_max": t_max, "dt": dt},
        # the sampled long-time means against the exact ones over distinct
        # energies; they part where the window is short of the slowest beat
        "long_time_means": {
            "abs_c0_sq": {"sampled": c0_sq, "exact": float(np.sum(w00 * w00))},
            "abs_cN_sq": {"sampled": cn_sq, "exact": float(np.sum(wn0 * wn0))},
        },
        "diagnostics": {model: diagnostics},
        "metadata": {"axes": "moduli", "bins": hist.size, "bin_width": hist.bin_width},
    }


@main.command()
@_common_options
@_exit_codes
def noon(config_path, out, **flag_values):
    """Histogram joint edge-state amplitudes and score N00N reachability."""
    cfg = _resolve(config_path, flag_values)
    sweep = cfg["sweep_n"]
    if sweep == []:
        raise ValueError("sweep_n must be a non-empty list of photon numbers")
    # each photon number once, 4.0 counting as 4: a repeat would overwrite its own files
    repeated = _repeated(map(int, sweep or ()))
    if repeated:
        raise ValueError(f"duplicate sweep_n photon numbers: {', '.join(map(str, repeated))}")
    cfgs = [cfg] if sweep is None else [{**cfg, "N": int(n), "sweep_n": None} for n in sweep]
    out_path = _out_dir(out)
    results = [_noon_single(c, _params(c)) for c in cfgs]
    for sub_cfg, (columns, extra) in zip(cfgs, results):
        suffix = "" if sweep is None else f"_N{sub_cfg['N']}"
        _emit(out_path, f"noon_{sub_cfg['model']}{suffix}", columns, "noon", sub_cfg, extra)


@main.command()
@_common_options
@_exit_codes
def validate(config_path, out, **flag_values):
    """Run the named cross-check suite and write a pass/fail report."""
    cfg = _resolve(config_path, flag_values)
    names = cfg["checks"]
    if names is not None and not names:
        raise ValueError("checks must be a non-empty list of check names")
    report = run_checks(names)
    out_path = _out_dir(out)
    report_path = out_path / "validation_report.json"
    _write_json(report_path, {"command": "validate", "version": __version__, "config": cfg,
                              **report.as_dict()})
    for result in report.results:
        status = "pass" if result.passed else "FAIL"
        click.echo(f"{status}  {result.name}: {result.detail}")
    click.echo(f"wrote {report_path}")
    if not report.passed:
        sys.exit(4)


if __name__ == "__main__":
    main()
