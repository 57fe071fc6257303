"""The README's code blocks run as written and print what their comments say."""

import json
import re
import shlex
from pathlib import Path

from fusionexp import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_under(heading, lang):
    """The first ```lang block after the line `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    match = re.search(rf"^```{lang}\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    return match.group(1)


def test_library_quickstart_runs():
    exec(compile(block_under("## Library quickstart", "python"), "README.md", "exec"), {})


def test_cli_block_runs_and_prints_what_its_comments_promise(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # params --out writes sys.json here
    promised = None
    checked = []
    for line in block_under("## CLI", "sh").splitlines():
        if line.startswith("#"):
            found = re.search(r"prints (\[.*\])$", line)
            promised = json.loads(found.group(1)) if found else None
            continue
        if not line.strip():
            continue
        argv = shlex.split(line)
        assert argv[0] == "fusionexp"
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if promised is not None:
            assert json.loads(out) == promised, line
            checked.append((argv[1], promised))
        promised = None
    assert checked == [("eval", ["16", "1"]), ("fdlog", ["3", "5"])]
