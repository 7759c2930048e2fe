"""What importing the package costs.

Every process that serves bits -- remote workers included -- imports
``repro``; loading all of ``scipy.stats`` for one normal CDF cost about
45 MB and a second of start-up.  The package's statistics come from
``scipy.special`` alone.
"""

import os
import subprocess
import sys

SCRIPT = ("import sys\n"
          "import repro, repro.core, repro.core.remote.worker\n"
          "print(sorted(name for name in sys.modules\n"
          "             if name == 'scipy.stats'\n"
          "             or name.startswith('scipy.stats.')))\n")


def test_importing_the_package_loads_no_scipy_stats():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert run.stdout.strip() == "[]"
