"""The package namespace and the README's library example."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import cavity_rpm

ROOT = Path(__file__).resolve().parents[1]

API = {
    "ModelParams",
    "build_sector_hamiltonian",
    "diagonalize",
    "edge_lines",
    "evolve",
    "first_transfer_time",
    "harmonic_amplitudes",
    "harmonic_line_spectra",
    "noon_statistics",
    "parity_chain_spectra",
    "rabi_amplitudes",
    "rpm_resolvent",
    "rpm_spectra",
    "smoothed_density",
    "spectra_from_eigen",
}


def _run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


def test_namespace_is_the_api_and_version():
    assert sorted(cavity_rpm.__all__) == sorted(API | {"__version__"})
    assert len(cavity_rpm.__all__) == 16
    for name in cavity_rpm.__all__:
        assert getattr(cavity_rpm, name) is not None
    # submodules aside, the package binds no other public name
    public = {name for name, value in vars(cavity_rpm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == API
    # README's library section names every entry, so a rename cannot slip past it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    library = library[:library.find("\n## ", 1)]
    assert [name for name in cavity_rpm.__all__
            if name != "__version__" and not re.search(rf"\b{name}\b", library)] == []


def test_package_import_leaves_validation_and_cli_unloaded():
    probe = _run_python(
        "import sys, cavity_rpm; "
        "print([m for m in ('cavity_rpm.validation', 'cavity_rpm.cli') if m in sys.modules])"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    assert "import cavity_rpm as cr" in block
    result = _run_python(block)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
