import importlib
import pkgutil

import pytest

import bbm_magnetic

MODULES = sorted(m.name for m in pkgutil.iter_modules(bbm_magnetic.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"bbm_magnetic.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_every_package_import_resolves_to_its_module():
    # each public name the package re-exports is the object of its module
    for name in dir(bbm_magnetic):
        obj = getattr(bbm_magnetic, name)
        home = getattr(obj, "__module__", None)
        if name.startswith("_") or not (home or "").startswith("bbm_magnetic."):
            continue
        assert getattr(importlib.import_module(home), name) is obj


def test_removed_duplicate_state_is_gone():
    from dataclasses import fields

    from bbm_magnetic import corpus, fields as fields_module, functionals, harness

    for module, name in ((bbm_magnetic, "FunctionalValue"), (functionals, "FunctionalValue"),
                         (fields_module, "COMPACT"), (fields_module, "UNRESTRICTED"),
                         (corpus, "field_labels"), (corpus, "potential_labels"),
                         (harness, "report_to_dict"), (harness, "_FAMILY_CHECKERS"),
                         (harness, "_FAMILY_KINDS"), (harness, "_check_family")):
        assert not hasattr(module, name), name
    assert not {"output", "fmt"} & {f.name for f in fields(bbm_magnetic.SweepConfig)}
    assert "point" not in [f.name for f in fields(bbm_magnetic.OperatorSample)]
    assert "support" not in [f.name for f in fields(bbm_magnetic.ScalarField)]
    assert [f.name for f in fields(bbm_magnetic.MollifierFamily)] == ["kind", "members"]
    assert "label" not in [f.name for f in fields(bbm_magnetic.RadialMollifier)]
