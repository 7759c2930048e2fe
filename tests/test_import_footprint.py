"""What importing the package costs.

Import layering:

* ``repro``, ``repro.core``, ``repro.dram`` and ``repro.crypto``
  export their names lazily (PEP 562): each keeps ``__all__`` and one
  name->module map, and a name's module loads on first access.
  Importing one module therefore loads only what that module imports.
* A remote worker (``python -m repro.core.remote.worker``) loads the
  bank-task kernel and nothing else: the 14 ``repro`` modules of
  :data:`WORKER_MODULES` and no scipy.  A process-pool child started
  by spawn or forkserver loads the same kernel minus the remote
  package.
* scipy loads only where it is used: ``settle_probability`` (imports
  ``scipy.special.ndtr`` when called; :mod:`repro.dram.calibration`
  calls it at import), :mod:`repro.nist` and
  :mod:`repro.dram.retention`.  No module loads ``scipy.stats``; for
  one normal CDF it cost about 45 MB and a second of start-up.
"""

import json
import os
import subprocess
import sys

import pytest

#: Every ``repro`` module a remote worker loads.  A new import on the
#: worker's path must be added here on purpose.
WORKER_MODULES = [
    "repro",
    "repro.bitops",
    "repro.core",
    "repro.core.parallel",
    "repro.core.remote",
    "repro.core.remote.wire",
    "repro.core.remote.worker",
    "repro.crypto",
    "repro.crypto.conditioner",
    "repro.crypto.sha256",
    "repro.dram",
    "repro.dram.sense_amplifier",
    "repro.errors",
    "repro.rng",
]

#: Defines ``loaded()``: the ``repro`` and ``scipy`` modules a process
#: has loaded.
LOADED = ("import json, sys\n"
          "def loaded():\n"
          "    return {prefix: sorted(name for name in sys.modules\n"
          "                           if name == prefix\n"
          "                           or name.startswith(prefix + '.'))\n"
          "            for prefix in ('repro', 'scipy')}\n")

#: Loads every ``repro`` module and resolves every lazy export, then
#: lists the ``scipy.stats`` modules that loaded.
SCRIPT = ("import importlib, pkgutil, sys\n"
          "import repro\n"
          "from repro import *\n"
          "for package in ('repro', 'repro.core', 'repro.dram',\n"
          "                'repro.crypto'):\n"
          "    module = importlib.import_module(package)\n"
          "    for name in module.__all__:\n"
          "        getattr(module, name)\n"
          "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
          "    importlib.import_module(info.name)\n"
          "print(sorted(name for name in sys.modules\n"
          "             if name == 'scipy.stats'\n"
          "             or name.startswith('scipy.stats.')))\n")


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd)


def test_importing_the_package_loads_no_scipy_stats():
    assert _python("-c", SCRIPT).stdout.strip() == "[]"


def test_worker_loads_only_the_kernel():
    run = _python("-c", LOADED + "import repro.core.remote.worker\n"
                                 "print(json.dumps(loaded()))\n")
    loaded = json.loads(run.stdout)
    assert loaded == {"repro": WORKER_MODULES, "scipy": []}


def test_worker_help_exits_zero():
    run = _python("-m", "repro.core.remote.worker", "--help")
    assert "remote generation worker" in run.stdout


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_child_loads_only_the_kernel(tmp_path, method):
    # The child unpickles run_bank_task by name and loads what that
    # needs: the worker's kernel without the remote package.
    probe = tmp_path / "probe.py"
    probe.write_text(LOADED + (
        "if __name__ == '__main__':\n"
        "    import multiprocessing\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    from repro.core.parallel import BankTask, run_bank_task\n"
        "    from repro.dram.sense_amplifier import settle_thresholds\n"
        "    from repro.rng import derive_key\n"
        "    task = BankTask(thermal_key=derive_key(1, 'probe', 0),\n"
        "                    thresholds=settle_thresholds([0.5] * 64),\n"
        "                    iterations=2, block_slices=((0, 64),))\n"
        "    context = multiprocessing.get_context(sys.argv[1])\n"
        "    with ProcessPoolExecutor(1, mp_context=context) as pool:\n"
        "        pool.submit(run_bank_task, task).result()\n"
        "        print(json.dumps(pool.submit(loaded).result()))\n"))
    loaded = json.loads(_python(str(probe), method, cwd=tmp_path).stdout)
    kernel = [name for name in WORKER_MODULES
              if not name.startswith("repro.core.remote")]
    assert loaded == {"repro": kernel, "scipy": []}


def test_lazy_exports_resolve():
    # In a fresh interpreter, so every name goes through __getattr__.
    run = _python("-c", (
        "import importlib, json\n"
        "missing = []\n"
        "for package in ('repro', 'repro.core', 'repro.dram',\n"
        "                'repro.crypto'):\n"
        "    module = importlib.import_module(package)\n"
        "    listed = dir(module)\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "        if name not in listed:\n"
        "            missing.append(f'{package}.{name}')\n"
        "    try:\n"
        "        getattr(module, 'no_such_name')\n"
        "        missing.append(f'{package} resolves an unknown name')\n"
        "    except AttributeError:\n"
        "        pass\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "exported = importlib.import_module('repro').__all__\n"
        "missing += [name for name in exported if name not in namespace]\n"
        "print(json.dumps(missing))\n"))
    assert json.loads(run.stdout) == []
