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


def set_up_modules(tmp_path, names, run=False) -> str:
    """The sorted list of those `names` that a fresh interpreter holds after
    `import vhd.cli` and `load_config`, and with `run` one 2-run
    `run_command` after them, as it prints it."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("sim.mc_runs = 2\n", encoding="utf-8")
    script = (
        "import sys, vhd.cli; cfg = vhd.cli.load_config(sys.argv[1]); "
        + ("vhd.cli.run_command(cfg, sys.argv[2], quiet=True); " if run else "")
        + f"print(sorted(m for m in sys.modules if m in {tuple(names)!r}))"
    )
    src = str(Path(vhd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", script, str(cfg_path), str(tmp_path / "out")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_set_up_loads_neither_numpy_polynomial_nor_argparse(tmp_path):
    # A batch's process maps only what the batch runs: PolyModel writes out
    # numpy.polynomial's Horner loop, and only main parses flags.
    assert set_up_modules(tmp_path, ("argparse", "numpy.polynomial")) == "[]\n"


def test_set_up_loads_no_process_pool(tmp_path):
    # --jobs forks its workers with os.fork and reads their blocks over
    # os.pipe, so no process, serial or not, loads a pool's machinery.
    names = ("concurrent.futures", "multiprocessing", "socket", "subprocess", "logging")
    assert set_up_modules(tmp_path, names) == "[]\n"


def test_numpy_random_is_loaded_by_the_batch_not_by_set_up(tmp_path):
    # Its first import (~13 ms) falls in the batch's timed region, in the
    # draws' first numpy.random call. Loading it in set-up would only move
    # the same time from the batch's figure to set-up's.
    assert set_up_modules(tmp_path, ("numpy.random",)) == "[]\n"
    assert set_up_modules(tmp_path, ("numpy.random",), run=True) == "['numpy.random']\n"
