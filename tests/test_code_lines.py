import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line a code line

# a comment line


class A:
    """Class docstring."""

    text = """a string that is no docstring,
    over two lines"""

    def f(self):
        """Function docstring."""
        return os.sep


def g(): "a docstring beside code"; return 1
'''


def test_counts_lines_with_a_token_other_than_comment_or_docstring():
    # import, class, the two lines of `text`, def f, return, def g
    assert code_lines.code_lines(SAMPLE) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SAMPLE)
    b.write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.split() == ["7", str(a), "1", str(b), "8", "total"]


def test_a_directory_counts_its_py_files_sorted(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("z = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "1", str(tmp_path / "a.py"), "7", str(tmp_path / "b.py"), "8", "total"]
