"""tools/make_toy_data.py rebuilds the toy files under tests/data; its
--check run compares the rebuild with them byte for byte. The training in
its verify() is left to the script itself."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "make_toy_data.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("make_toy_data", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rebuild_matches_the_committed_files():
    tool = load_tool()
    files = tool.toy_files(tool.build_sentences())
    assert len(files) == 6
    assert tool.drifted(files) == []
    rel = os.path.join("toy", "pos.tsv")
    files[rel] += "x\tN\n"
    assert tool.drifted(files) == [rel]
