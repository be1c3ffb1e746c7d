"""The README's Library section is the package's top-level API: its example
runs as written, and the top level exports its names plus the base error."""
import os
import re

import scenex

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_example() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert len(namespace["batch"].children) == 3 ** 5
    assert namespace["batch"].n_failed == 0
    assert namespace["density"].n_samples == 3 ** 5


def test_top_level_exports_the_library_names():
    imported = re.search(r"from scenex import \(([^)]*)\)", library_example()).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(scenex.__all__) == names | {"ScenexError"}
    assert all(hasattr(scenex, name) for name in scenex.__all__)
