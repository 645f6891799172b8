"""The maintenance scripts under scripts/ stay runnable and reproduce
what the repository holds."""

import importlib.util
import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

#: the census `survey_corpus.py --poset-size 6 --inv-size 6` prints
CENSUS = """\
variety     unitary  finitary  nullary
bdl              25       379        1
kleene           18        27        0
demorgan         28        37        3

nullary certificate families:
  bdl        bdl  1
  demorgan   m2   3
"""


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_goldens_and_census_reproduced(tmp_path, data_dir, monkeypatch, capsys):
    regen = load_script("regen_goldens")
    monkeypatch.setattr(regen, "DATA", tmp_path)
    regen.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in data_dir.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name

    survey = load_script("survey_corpus")
    monkeypatch.setattr(
        sys, "argv", ["survey_corpus.py", "--poset-size", "6", "--inv-size", "6"]
    )
    capsys.readouterr()
    survey.main()
    census, _, elapsed = capsys.readouterr().out.partition("\nelapsed: ")
    assert census == CENSUS
    assert elapsed.endswith("s\n")
