"""The README's library example and sweep config run as written."""

import json
import re
from pathlib import Path

from bbm_magnetic.harness import config_from_dict, run_sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # the single-s line and one line per s of the s-list


def test_readme_sweep_config_loads_and_runs():
    # a key the parser no longer takes would stay in the README unnoticed
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    cfg = config_from_dict(json.loads(blocks[0]))
    report = run_sweep(cfg)
    assert not any(row.failed for row in report.rows)
    assert config_from_dict(report.metadata["config"]) == cfg
