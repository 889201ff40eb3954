"""The package as README presents it: its one library example runs as
written, and importing it loads the standard library only."""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("True\nTrue\n# pulseforge sweep schema v1\n")


def test_importing_the_package_loads_the_standard_library_only():
    # -S keeps site, and with it any installed distribution, out.
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import pulseforge; print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "src")], capture_output=True,
                          text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "pulseforge.cli" in loaded
    allowed = set(sys.stdlib_module_names) | {"__main__", "pulseforge"}
    assert [m for m in loaded if m.split(".")[0] not in allowed] == []
