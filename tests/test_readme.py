import doctest
import re
import shlex
from pathlib import Path

import artifact
from artifact.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every `artifact ...` line of the README's sh blocks exits 0
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("artifact ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from artifact import *", namespace)
    for name in artifact.__all__:
        assert namespace[name] is getattr(artifact, name)
