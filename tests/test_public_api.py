"""Release-hygiene tests: the documented public API actually exists.

Every name a README/docstring example uses must import from where the
documentation says it does, and every ``__all__`` entry must resolve.
"""

import importlib

import pytest

_PACKAGES = [
    "repro",
    "repro.nlp",
    "repro.llm",
    "repro.embeddings",
    "repro.fol",
    "repro.smtlib",
    "repro.solver",
    "repro.corpus",
    "repro.core",
    "repro.analysis",
    "repro.store",
    "repro.registry",
    "repro.server",
    "repro.providers",
]


class TestAllExportsResolve:
    @pytest.mark.parametrize("name", _PACKAGES)
    def test_dunder_all_resolves(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} has no __all__"
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", _PACKAGES)
    def test_module_docstrings_present(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), name


class TestReadmeImports:
    def test_quickstart_imports(self):
        from repro import PolicyPipeline  # noqa: F401
        from repro.corpus import tiktak_policy  # noqa: F401

    def test_llm_seam(self):
        from repro.llm.client import LLMClient
        from repro.llm.simulated import SimulatedLLM

        assert isinstance(SimulatedLLM(), LLMClient)

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_cli_entry_point(self):
        from repro.cli import build_parser, main  # noqa: F401

        parser = build_parser()
        commands = {
            a.dest for a in parser._subparsers._group_actions for a in [a]
        }
        assert "command" in commands


class TestPublicDocstrings:
    @pytest.mark.parametrize(
        "module_name,attrs",
        [
            ("repro.core.pipeline", ("PolicyPipeline", "PolicyPipeline.process")),
            ("repro.core.pipeline", ("PolicyPipeline.query", "PolicyPipeline.update")),
            ("repro.solver.interface", ("Solver", "Solver.check_sat_assuming")),
            ("repro.smtlib.printer", ("compile_validity_script",)),
            ("repro.core.hierarchy", ("chain_of_layer", "Taxonomy")),
            ("repro.analysis.contradictions", ("find_contradictions",)),
        ],
    )
    def test_key_apis_documented(self, module_name, attrs):
        module = importlib.import_module(module_name)
        for dotted in attrs:
            obj = module
            for part in dotted.split("."):
                obj = getattr(obj, part)
            assert obj.__doc__ and obj.__doc__.strip(), f"{module_name}.{dotted}"
