"""README.md's Python examples run as written.

The ```python blocks are executed in order in one namespace, so a later
block may use names an earlier one defined; the quick start asserts that
its chain verifies.
"""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, code in enumerate(blocks):
        exec(compile(code, "README.md python block %d" % (i + 1), "exec"), namespace)
    assert namespace["report"].verified
    assert "['u1 = 12 - u2 - 3*u3']" in capsys.readouterr().out
