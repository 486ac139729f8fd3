import numpy as np
import pytest

import itofourier
from itofourier.basis import BasisSystem, Interval
from itofourier.coefficients import CoefficientTensor, coefficient_tensor, fourier_coefficient
from itofourier.errors import DomainError
from itofourier.kernel import CONSTANT_ONE, IntegralSpec, constant_spec
from itofourier.validation import sample_differences

UNIT = Interval(0.0, 1.0)
LEGENDRE = BasisSystem.LEGENDRE


def test_exports_resolve_once_and_leave_out_test_references():
    names = itofourier.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(itofourier, name) is not None, name
    assert not {"hermite_reference", "eval_kernel"} & set(names)


@pytest.mark.parametrize("call, named", [
    (lambda: IntegralSpec(iv=UNIT, k=True, indices=(1,), weights=(CONSTANT_ONE,)), "k"),
    (lambda: IntegralSpec(iv=UNIT, k=2, indices=(1.7, 2.2), weights=(CONSTANT_ONE,) * 2),
     "indices"),
    (lambda: constant_spec(UNIT, (1, 2.5)), "indices"),
    (lambda: coefficient_tensor(constant_spec(UNIT, (1,)), LEGENDRE, (1.9,)), "orders"),
    (lambda: coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE, (True, 0)), "orders"),
    (lambda: CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=LEGENDRE, orders=(True,),
                               values=np.zeros(2)), "orders"),
    (lambda: fourier_coefficient(constant_spec(UNIT, (1, 2)), LEGENDRE, (0.5, 1)), "jtuple"),
    (lambda: sample_differences(constant_spec(UNIT, (1, 2)), LEGENDRE, (0.7, 0.2), 100, 16, 1),
     "orders"),
], ids=["spec-k-bool", "spec-indices-float", "constant-spec-indices", "tensor-orders-float",
        "tensor-orders-bool", "tensor-class-orders-bool", "coefficient-index-float",
        "sample-orders-float"])
def test_integer_arguments_are_read_strictly(call, named):
    with pytest.raises(DomainError, match=f"^{named}: expected an integer, got"):
        call()
