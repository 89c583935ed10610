"""Documentation stays truthful: links resolve, maps match the code."""

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "docs"))

import check_links  # noqa: E402


class TestDocs:
    def test_readme_exists_and_is_substantial(self):
        readme = REPO_ROOT / "README.md"
        assert readme.exists()
        text = readme.read_text()
        assert "quickstart" in text.lower()
        assert "portfolio" in text.lower()

    def test_all_relative_links_resolve(self):
        assert check_links.broken_links() == []

    def test_required_docs_present(self):
        names = {f.name for f in check_links.doc_files()}
        assert {"README.md", "architecture.md", "paper_mapping.md"} <= names

    def test_paper_mapping_modules_exist(self):
        """Every `repro.x.y` dotted path named in the paper map imports."""
        text = (REPO_ROOT / "docs" / "paper_mapping.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        assert modules, "paper_mapping.md should reference repro modules"
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Try the longest importable prefix; the tail may be an
            # attribute (class/function) rather than a module.
            for split in range(len(parts), 0, -1):
                try:
                    mod = importlib.import_module(".".join(parts[:split]))
                    break
                except ModuleNotFoundError:
                    continue
            else:  # pragma: no cover
                raise AssertionError(f"{dotted} does not import at all")
            obj = mod
            for attr in parts[split:]:
                assert hasattr(obj, attr), f"{dotted}: missing {attr}"
                obj = getattr(obj, attr)

    def test_readme_method_table_matches_registry(self):
        from repro.api.registry import METHOD_FACTORIES

        text = (REPO_ROOT / "README.md").read_text()
        for name in METHOD_FACTORIES:
            assert f"`{name}`" in text, f"README missing method {name}"
