import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vhd


def test_all_lists_every_public_name_bound_in_the_package():
    # The names come from one {name: home module} table and are looked up
    # in their home module on each use: `vars(vhd)` binds none of them.
    assert dir(vhd) == sorted(vhd.__all__)
    assert len(vhd.__all__) == len(set(vhd.__all__))
    for name in vhd.__all__:
        home = vhd if name == "__version__" else importlib.import_module(f"vhd.{vhd._HOMES[name]}")
        assert getattr(vhd, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        vhd.nothing


RUN_COMMAND = "vhd.cli.run_command(cfg, sys.argv[2], quiet=True)"


def set_up_modules(tmp_path, names, then=None) -> str:
    """The sorted list of those `names` that a fresh interpreter holds after
    `import vhd.cli` and `load_config`, and after the statement `then` when
    one is given, as it prints it."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("sim.mc_runs = 2\n", encoding="utf-8")
    script = (
        "import sys, vhd.cli; cfg = vhd.cli.load_config(sys.argv[1]); "
        + (f"{then}; " if then else "")
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
    assert set_up_modules(tmp_path, ("numpy.random",), then=RUN_COMMAND) == "['numpy.random']\n"


def test_a_batch_loads_no_reference_filter_and_no_codec(tmp_path):
    # A batch runs the engine alone: the 6x6 numpy filter and the per-run
    # outage loop are the reference's, which run_scenario imports when it
    # runs. load_config cuts a UTF-8 byte-order mark itself.
    names = ("vhd.estimator", "vhd.outage", "encodings.utf_8_sig")
    assert set_up_modules(tmp_path, names) == "[]\n"
    assert set_up_modules(tmp_path, names, then=RUN_COMMAND) == "[]\n"
    assert set_up_modules(tmp_path, names, then="vhd.simkit.run_scenario(cfg, cfg.base_seed)") == (
        "['vhd.estimator', 'vhd.outage']\n"
    )
    assert set_up_modules(tmp_path, names, then="from vhd.simkit import run_scenario") == (
        "['vhd.estimator', 'vhd.outage']\n"
    )


def test_simkit_forwards_the_reference_names_to_outage():
    # The per-run reference lives in `outage`, so that a batch's process does
    # not compile it; `simkit` hands out those three names and no others.
    from vhd import outage, simkit

    for name in ("OnsetState", "run_scenario", "track_to_outage"):
        assert name not in vars(simkit)
        assert getattr(simkit, name) is getattr(outage, name)
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        simkit.nothing
