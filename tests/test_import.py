import subprocess
import sys
from pathlib import Path

import cpint


def test_import_loads_no_scipy():
    # scipy is imported only inside the functions that call it
    code = ("import cpint, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=Path(cpint.__file__).parents[1]).stdout
    assert out.strip() == "[]"
