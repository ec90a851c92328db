"""The README's code examples run as written."""
import re
from pathlib import Path

import pytest

from atomdfo.cli import SuiteConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_quick_start_runs(capsys):
    (quick_start,) = blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})
    assert "OrdStop." in capsys.readouterr().out


@pytest.mark.parametrize("index", range(len(blocks("json"))))
def test_manifest_loads(tmp_path, index):
    path = tmp_path / "suite.json"
    path.write_text(blocks("json")[index])
    assert SuiteConfig.from_json(path).pairs == ((10, 200),)


def test_every_example_is_collected():
    assert len(blocks("python")) == 1 and len(blocks("json")) == 2
