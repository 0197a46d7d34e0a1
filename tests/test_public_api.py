"""Public-API integrity: every ``__all__`` name resolves, docstrings exist.

Guards against export rot: a renamed class whose ``__all__`` entry was
forgotten, a public module without documentation, or an example or
benchmark script still importing something that was deleted.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.axi",
    "repro.control",
    "repro.core",
    "repro.core.characterization",
    "repro.core.delay",
    "repro.core.resilience",
    "repro.engine",
    "repro.experiments",
    "repro.experiments.ablations",
    "repro.mem",
    "repro.net",
    "repro.nic",
    "repro.node",
    "repro.sim",
    "repro.workloads",
    "repro.workloads.graph500",
    "repro.workloads.kvstore",
]


ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(ROOT.glob("benchmarks/bench_*.py"))


def _walk_modules():
    seen = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        seen.append(info.name)
    return seen


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


def test_every_module_importable():
    failures = []
    for name in _walk_modules():
        try:
            importlib.import_module(name)
        except Exception as exc:  # pragma: no cover - report below
            failures.append((name, exc))
    assert not failures, failures


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path):
    """Examples and benches import cleanly; their ``main`` does not run."""
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert (module.__doc__ or "").strip()


def test_every_module_has_docstring():
    undocumented = [
        name
        for name in _walk_modules()
        if not (importlib.import_module(name).__doc__ or "").strip()
    ]
    assert not undocumented, undocumented


def test_version_attribute():
    assert repro.__version__ == "1.0.0"


def test_public_classes_documented():
    """Every exported class/function carries a docstring."""
    missing = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not (getattr(obj, "__doc__", None) or "").strip():
                missing.append(f"{package}.{name}")
    assert not missing, missing
