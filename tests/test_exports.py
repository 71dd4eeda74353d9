import os
import subprocess
import sys
from pathlib import Path

import frobtorus


def test_every_root_export_resolves_and_appears_once():
    names = frobtorus.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(frobtorus, name)]
    assert missing == []


def test_importing_the_package_loads_no_process_pool():
    # a survey runs in one process, so start-up pays for no pool machinery
    src = str(Path(frobtorus.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, frobtorus; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
