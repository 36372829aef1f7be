import inspect
import os
import subprocess
import sys
from pathlib import Path

import vhd


def test_all_lists_every_public_name_bound_in_the_package():
    bound = {
        name
        for name, value in vars(vhd).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(vhd.__all__) - {"__version__"} == bound
    assert len(vhd.__all__) == len(set(vhd.__all__))


def test_set_up_loads_neither_numpy_polynomial_nor_argparse(tmp_path):
    # A batch's process maps only what the batch runs: PolyModel writes out
    # numpy.polynomial's Horner loop, and only main parses flags.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("sim.mc_runs = 2\n", encoding="utf-8")
    script = (
        "import sys, vhd.cli; vhd.cli.load_config(sys.argv[1]); "
        "print(sorted(m for m in sys.modules if m in ('argparse', 'numpy.polynomial')))"
    )
    src = str(Path(vhd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(cfg_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
