"""The top-level API is the README's list, and importing it stays light."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import varicurv as vc

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_names():
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`", section, re.M)


def test_top_level_names_match_readme():
    listed = readme_api_names()
    assert len(listed) == len(set(listed))
    exported = {
        name for name in dir(vc)
        if not name.startswith("_") and not inspect.ismodule(getattr(vc, name))
    }
    assert set(listed) - {"io"} == exported
    assert "io" in listed and vc.io.__name__ == "varicurv.io"


def test_import_does_not_load_quadrature():
    src = str(Path(vc.__file__).resolve().parents[1])
    code = ("import sys, varicurv, varicurv.cli, varicurv.convergence; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
