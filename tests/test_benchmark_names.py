"""The benchmark under perfbench/ looks up msr names from outside the
package: its tracer wraps pipeline layer functions, MemoryStore and
FeedbackHistory methods and seeding streams by name, and rep.py builds the
configs, generates, saves, loads and runs. Both steps run here on a tiny
spec, each in a fresh process, so removing a name they use fails this test
with that name."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _python(cwd, *args):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH])}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_tracer_installs(tmp_path):
    _python(tmp_path, "-c", "import tracer; tracer.install(tracer.Tracer('names'))")


def test_rep_gen_then_traced(tmp_path):
    spec = json.dumps({"n": 20, "seed": 5, "tau": 0.5, "k": 4, "m_count": 16, "workers": 1,
                       "out": str(tmp_path / "out"), "path": str(tmp_path / "data.json"),
                       "run_id": "names", "spans": str(tmp_path / "spans.csv")})
    rep = os.path.join(PERFBENCH, "rep.py")
    gen = json.loads(_python(tmp_path, rep, "gen", spec).splitlines()[-1])
    assert gen["records"] == 60
    traced = json.loads(_python(tmp_path, rep, "traced", spec).splitlines()[-1])
    assert traced["spans"] > 0
    assert (tmp_path / "out" / "trace.jsonl").exists()
