"""Every name in a ``repro`` package's ``__all__`` resolves.

The check runs in a fresh interpreter: ``repro.obs`` resolves its
telemetry names lazily, and other tests assert that the telemetry
module stays unloaded in the test process.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CHECK = """
import importlib
import pkgutil

import repro

for info in pkgutil.iter_modules(repro.__path__):
    if not info.ispkg:
        continue
    package = importlib.import_module(f"repro.{info.name}")
    for name in package.__all__:
        if not hasattr(package, name):
            print(f"repro.{info.name}.{name}")
"""


def test_every_package_export_resolves():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", CHECK], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "", f"dangling exports:\n{result.stdout}"
