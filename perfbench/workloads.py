"""The benchmark's workloads: fixed CLI command lines at two sizes.

A workload is a list of ``cavity_rpm.cli.main`` argument lists; one pass
runs them all once, in order.  ``full`` is the measured size, ``tiny`` the
same command mix at a size small enough for the benchmark's own tests.
Every command shares g=1.2, J=0.8, omega0=1, sigma=+1 (the CLI defaults,
spelled out as in the README) unless it says otherwise.
"""

from __future__ import annotations

NAMES = ("figure-n100", "noon-n100", "oracle-n3000", "rpm-n10000")

# the calibration loop (calibration.LOOPS) of each workload: the kind of work
# that dominates it, interpreted code, small-array NumPy, large-array complex
# exponentials or a large eigensolve
CALIBRATION = {"figure-n100": "python", "noon-n100": "exp",
               "oracle-n3000": "lapack", "rpm-n10000": "numpy"}

# the named checks `validate` runs, all of which must pass
VALIDATION_CHECKS = (
    "completeness", "herglotz", "oracle_equivalence", "sign_symmetry", "mirror_image",
    "harmonic_closed_forms", "rabi_conservation", "dressed_matrix_elements", "parity",
    "degeneracy_j0",
)

# the config file the rpm workload passes with --config; the worker writes it
RPM_CONFIG = "rpm_config.json"

_PAIR = ["--g", "1.2", "--J", "0.8"]

# sizes and windows per size; the reference checks read them too
SPEC = {
    "full": {"figure_n": 100, "figure_dt": 0.002, "noon_tmax": 150,
             "oracle_n": 3000, "rpm_n": 10000, "rpm_points": 4001},
    "tiny": {"figure_n": 10, "figure_dt": 0.01, "noon_tmax": 20,
             "oracle_n": 40, "rpm_n": 200, "rpm_points": 401},
}
SIZES = tuple(SPEC)


def commands(name: str, size: str, out: str) -> list[list[str]]:
    """Argument lists of one pass of workload ``name``, writing into ``out``.

    ``rpm-n10000`` reads its config from ``out``: see :func:`rpm_config`.
    """
    s = SPEC[size]
    if name == "figure-n100":
        n = ["--N", str(s["figure_n"])]
        argvs = [
            ["spectrum", "--model", "harmonic", "--N", "2", "--J", "1", "--omega0", "0"],
            ["spectrum", "--model", "anharmonic-rpm", *n, *_PAIR, "--epsilon", "0.01"],
            ["spectrum", "--compare", *n, *_PAIR, "--epsilon", "0.01"],
            ["dynamics", "--model", "anharmonic-oracle", *n, *_PAIR, "--tmax", "10",
             "--dt", str(s["figure_dt"]), "--compare", "--first-transfer"],
            ["validate"],
        ]
    elif name == "noon-n100":
        argvs = [
            ["noon", "--model", "anharmonic-oracle", "--N", "100", *_PAIR,
             "--bins", "50", "--tmax", str(s["noon_tmax"])],
        ]
    elif name == "oracle-n3000":
        n = ["--N", str(s["oracle_n"])]
        argvs = [
            ["spectrum", "--compare", *n, *_PAIR, "--epsilon", "0.01"],
            ["dynamics", "--model", "anharmonic-oracle", *n, *_PAIR, "--tmax", "10",
             "--dt", "0.01", "--first-transfer"],
        ]
    elif name == "rpm-n10000":
        argvs = [
            ["spectrum", "--model", "anharmonic-rpm", "--N", str(s["rpm_n"]), *_PAIR,
             "--epsilon", "0.01", "--config", f"{out}/{RPM_CONFIG}"],
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    return [argv + ["--out", out] for argv in argvs]


def rpm_config(size: str) -> dict:
    """Contents of the ``--config`` file of ``rpm-n10000``: the grid size."""
    return {"points": SPEC[size]["rpm_points"]}
