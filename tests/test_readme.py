"""The README's library recipe imports only names the package has."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_recipe() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_recipe_imports_existing_names():
    imports = [node for node in ast.walk(ast.parse(library_recipe()))
               if isinstance(node, ast.ImportFrom)
               and node.module.startswith("hvforecast")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (
                f"README imports {alias.name} from {node.module}")
