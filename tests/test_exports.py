import os
import re
import subprocess
import sys
from pathlib import Path

import frobtorus


def test_every_root_export_resolves_and_appears_once():
    names = frobtorus.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(frobtorus, name)]
    assert missing == []


def test_the_root_exports_exactly_the_names_readme_documents():
    # README's Library section lists the root's names in the bullets after
    # its mention of frobtorus.__all__, each bullet naming them before its
    # first colon
    readme = Path(__file__).resolve().parent.parent / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n")[1]
    listing = library.split("`frobtorus.__all__`")[1].split("\n\n")[1]
    documented = [
        name
        for bullet in listing.split("\n- ")
        for name in re.findall(r"`(\w+)`", bullet.split(": ")[0])
    ]
    assert sorted(documented) == sorted(frobtorus.__all__)


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
