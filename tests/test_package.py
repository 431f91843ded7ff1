"""The package namespace: what `import ofdmsee` exports."""

import importlib

import ofdmsee

MODULES = ("specfun", "pa_models", "power_models", "se_engine", "ee_engine", "pas_engine", "mc_oracle")


def test_all_is_the_union_of_the_module_exports():
    names = set()
    for name in MODULES:
        names.update(importlib.import_module("ofdmsee." + name).__all__)
    assert len(ofdmsee.__all__) == len(set(ofdmsee.__all__))
    assert set(ofdmsee.__all__) == names | {"__version__"}


def test_every_exported_name_resolves():
    for name in ofdmsee.__all__:
        assert getattr(ofdmsee, name) is not None, name
    for module in MODULES:
        mod = importlib.import_module("ofdmsee." + module)
        for name in mod.__all__:
            assert getattr(ofdmsee, name) is getattr(mod, name), (module, name)


def test_alias_is_not_exported():
    assert "pdf_unclipped_closed" not in ofdmsee.__all__
    assert not hasattr(ofdmsee, "pdf_unclipped_closed")
