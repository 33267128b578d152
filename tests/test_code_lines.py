"""tools/code_lines.py counts the code lines of the package's modules: not
blank, not a "#" comment and not a docstring of a module, class or function."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")

# Ten code lines, each marked "# code" where a comment may follow it.
FIXTURE = "\n".join([
    '"""The module docstring,',
    'on two lines."""',
    "",
    "import os  # code",
    "",
    "    # an indented comment",
    "class A:  # code",
    "    '''The class docstring.'''",
    "",
    '    x = """a string that is not a docstring,  # code',
    '    on two lines, is code"""',
    "",
    "    def f(self):  # code",
    '        """The function docstring."""',
    "        return 1  # code",
    "",
    "    async def g(self):  # code",
    '        """Its docstring,',
    '        on two lines."""',
    "",
    "",
    "def h():  # code",
    "    return os.sep",
    '    "a string after the first statement is code"',
    "",
])


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_fixture():
    assert load_tool().code_lines(FIXTURE) == 10


def test_prints_each_file_and_the_total(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(FIXTURE, encoding="utf-8")
    b.write_text('"""Only a docstring."""\n\n# and a comment\nx = 1\n', encoding="utf-8")
    assert tool.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["10", "1", "11"]
    assert lines[-1].split()[1] == "total"
