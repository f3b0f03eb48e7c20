import os
import sys

from launcher import Launcher
from probe import operation_cpu


def test_launcher_reports_exit_status_output_and_timeouts(tmp_path):
    out, err = tmp_path / "out.txt", tmp_path / "err.txt"
    env = dict(os.environ)
    with Launcher(operation_cpu()) as launcher:
        done = launcher.run([sys.executable, "-c", "print('hi'); raise SystemExit(3)"],
                            env, tmp_path, out, err, timeout=30.0)
        assert done["status"] == 3 and out.read_text() == "hi\n"
        assert done["wall_s"] > 0 and done["peak_rss_mb"] > 0
        slow = launcher.run([sys.executable, "-c", "import time; time.sleep(30)"],
                            env, tmp_path, out, err, timeout=0.5)
        assert slow["status"] is None and slow["wall_s"] < 10
