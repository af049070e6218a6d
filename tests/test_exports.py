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

    from bbm_magnetic import (constants, corpus, fields as fields_module, functionals, geometry,
                              harness, operator, quadrature)

    for module, name in ((bbm_magnetic, "FunctionalValue"), (functionals, "FunctionalValue"),
                         (fields_module, "COMPACT"), (fields_module, "UNRESTRICTED"),
                         (corpus, "field_labels"), (corpus, "potential_labels"),
                         (harness, "report_to_dict"), (harness, "_FAMILY_CHECKERS"),
                         (harness, "_FAMILY_KINDS"), (harness, "_check_family"),
                         (quadrature, "near_field_hook"), (quadrature, "_layered_radial"),
                         (quadrature, "_layer_counts"), (quadrature, "_block_edges"),
                         (quadrature, "_GEOMETRIC_RATIO"), (functionals, "_seminorm_hook"),
                         (harness, "run_mollifier_sweep"), (bbm_magnetic, "run_mollifier_sweep"),
                         (functionals, "uniform_bound_check"), (functionals, "_uniform_scale"),
                         (bbm_magnetic, "uniform_bound_check"), (geometry, "boundary_distance"),
                         (geometry, "Direction"), (bbm_magnetic, "boundary_distance"),
                         (bbm_magnetic, "Direction"), (constants, "DimensionalConstants"),
                         (constants, "dimensional_constants"),
                         (bbm_magnetic, "DimensionalConstants"),
                         (bbm_magnetic, "dimensional_constants"),
                         (quadrature, "double_integrals_singular"),
                         (bbm_magnetic, "double_integrals_singular"),
                         # the operator's own ray rule, now quadrature.ray_rule's composite case
                         (operator, "_ray_rule"), (operator, "_NEAR_FACTOR"),
                         (operator, "_NEAR_NODES"), (operator, "_FAR_PANELS"),
                         (operator, "_PANEL_NODES"), (operator, "_FAR_FACTOR")):
        assert not hasattr(module, name), name
    assert not {"eps", "near_field"} & {f.name for f in fields(bbm_magnetic.QuadratureSpec)}
    assert not {"near_moment", "fn"} & {f.name for f in fields(bbm_magnetic.RadialMollifier)}
    assert not {"output", "fmt"} & {f.name for f in fields(bbm_magnetic.SweepConfig)}
    assert "point" not in [f.name for f in fields(bbm_magnetic.OperatorSample)]
    assert "support" not in [f.name for f in fields(bbm_magnetic.ScalarField)]
    assert [f.name for f in fields(bbm_magnetic.MollifierFamily)] == ["kind", "members"]
    assert "label" not in [f.name for f in fields(bbm_magnetic.RadialMollifier)]


def test_each_rule_has_one_owner():
    import inspect
    from dataclasses import MISSING, fields

    from bbm_magnetic import errors, fields as fields_module, functionals, harness

    for module, name in ((functionals, "_positive_number"), (fields_module, "require_gradient"),
                         (harness, "_energy_grid")):
        assert not hasattr(module, name), name
    # harness.default_spec(N) is the only default discretization
    assert all(f.default is MISSING for f in fields(bbm_magnetic.QuadratureSpec))
    assert bbm_magnetic.default_spec is harness.default_spec
    assert "item" not in inspect.signature(errors.check_numbers).parameters
