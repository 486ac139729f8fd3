import numpy as np
import pytest

import itofourier
from itofourier import errors
from itofourier.basis import BasisSystem, Interval
from itofourier.coefficients import (CoefficientTensor, coefficient_tensor,
                                     read_coefficient_table, write_coefficient_table)
from itofourier.errors import CapacityError, DomainError
from itofourier.kernel import CONSTANT_ONE, IntegralSpec, constant_spec
from itofourier.stochastic import brownian_path, zeta_from_path
from itofourier.validation import sample_differences

UNIT = Interval(0.0, 1.0)
LEGENDRE = BasisSystem.LEGENDRE


def test_exports_resolve_once_and_leave_out_test_references():
    names = itofourier.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(itofourier, name) is not None, name
    assert not {"hermite_reference", "eval_kernel", "gram_matrix",
                "fourier_coefficient"} & set(names)
    for module, name in ((itofourier, "gram_matrix"), (itofourier, "fourier_coefficient"),
                         (itofourier.basis, "gram_matrix"),
                         (itofourier.coefficients, "fourier_coefficient")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("call, named", [
    (lambda: IntegralSpec(iv=UNIT, k=True, indices=(1,), weights=(CONSTANT_ONE,)), "k"),
    (lambda: IntegralSpec(iv=UNIT, k=2, indices=(1.7, 2.2), weights=(CONSTANT_ONE,) * 2),
     "indices"),
    (lambda: constant_spec(UNIT, (1, 2.5)), "indices"),
    (lambda: coefficient_tensor(constant_spec(UNIT, (1,)), LEGENDRE, (1.9,)), "orders"),
    (lambda: coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE, (True, 0)), "orders"),
    (lambda: CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=LEGENDRE, orders=(True,),
                               values=np.zeros(2)), "orders"),
    (lambda: sample_differences(constant_spec(UNIT, (1, 2)), LEGENDRE, (0.7, 0.2), 100, 16, 1),
     "orders"),
], ids=["spec-k-bool", "spec-indices-float", "constant-spec-indices", "tensor-orders-float",
        "tensor-orders-bool", "tensor-class-orders-bool", "sample-orders-float"])
def test_integer_arguments_are_read_strictly(call, named):
    with pytest.raises(DomainError, match=f"^{named}: expected an integer, got"):
        call()


def test_one_constant_caps_every_size(tmp_path, monkeypatch):
    table = tmp_path / "table.csv"
    write_coefficient_table(table, coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE,
                                                      (40, 40)))
    path = brownian_path(UNIT, 1, 100, seed=5)
    monkeypatch.setattr(errors, "MAX_ENTRIES", 1000)
    for call, named in [
        (lambda: coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE, (40, 40)),
         "tensor would hold 1681 entries"),
        # 41 rows at 42 nodes: 1722 entries in one sweep array
        (lambda: coefficient_tensor(constant_spec(UNIT, (1,)), LEGENDRE, (40,)),
         "quadrature would hold up to 1722 entries"),
        (lambda: read_coefficient_table(table), "tensor would hold 1681 entries"),
        (lambda: brownian_path(UNIT, 2, 501, seed=1), "paths would hold 1002 increments"),
        (lambda: zeta_from_path(path, BasisSystem.WALSH, 10),
         "simulation grid would hold 1100 basis values"),
        (lambda: sample_differences(constant_spec(UNIT, (1, 2)), LEGENDRE, (0, 0), 1001, 16, 1),
         "n_paths = 1001 paths"),
    ]:
        with pytest.raises(CapacityError, match=named + ".* > cap 1000$"):
            call()
