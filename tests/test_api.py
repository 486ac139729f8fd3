import math
import os
import subprocess
import sys

import numpy as np
import pytest

import itofourier
from itofourier import errors
from itofourier.basis import (BasisSystem, Interval, basis_matrix, basis_rows, breakpoints,
                              eval_basis, integrate_basis, jump_depth)
from itofourier.coefficients import (CoefficientTensor, coefficient_tensor,
                                     read_coefficient_table, write_coefficient_table)
from itofourier.errors import CapacityError, DomainError, ItoFourierError, NumericError
from itofourier.expansion import truncated_expansion
from itofourier.kernel import CONSTANT_ONE, IntegralSpec, Weight, constant_spec, eval_weight
from itofourier.partitions import pair_partitions
from itofourier.stochastic import (GaussianPool, WienerPath, brownian_path, gaussian_pool,
                                   path_seed, run_paths, zeta_from_path)
from itofourier.validation import (moment_bound_2n, moment_check, ms_error_bound,
                                   sample_differences, strong_error_estimate)

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


def test_import_runs_openblas_on_one_thread():
    # a fresh process: the thread count is set when the package is imported
    code = ("import itofourier; blas = itofourier._openblas(); print(-1 if blas is None "
            "else getattr(blas[0], blas[1].replace('set_', 'get_'))())")
    src = os.path.dirname(os.path.dirname(itofourier.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    if int(out) == -1:
        pytest.skip("no loaded library named openblas with a set_num_threads symbol: "
                    "numpy's BLAS is another one, or the platform has no /proc/self/maps")
    assert int(out) == 1


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


@pytest.mark.parametrize("call, named", [
    (lambda: eval_basis(LEGENDRE, 2, math.nan, UNIT), "s"),
    (lambda: eval_basis(BasisSystem.TRIGONOMETRIC, 3, [0.2, math.nan], UNIT), "s"),
    (lambda: eval_basis(BasisSystem.HAAR, 3, math.nan, UNIT), "s"),
    (lambda: eval_basis(BasisSystem.WALSH, 3, math.nan, UNIT), "s"),
    (lambda: basis_matrix(LEGENDRE, 3, [[0.2, 0.3]], UNIT), "s"),
    (lambda: basis_rows(LEGENDRE, [], [0.3], UNIT), "j"),
    (lambda: eval_weight(Weight((1.0, 2.0)), math.nan, UNIT), "s"),
    (lambda: ms_error_bound(2, math.nan), "residual"),
    (lambda: moment_bound_2n(2, 2, math.nan), "residual"),
], ids=["legendre-nan", "trigonometric-nan", "haar-nan", "walsh-nan", "matrix-2d",
        "rows-empty", "weight-nan", "ms-bound-nan", "moment-bound-nan"])
def test_bad_points_and_residuals_are_domain_errors(call, named):
    # a NaN fails every range check, and no malformed input reaches numpy
    with pytest.raises(DomainError, match=f"^{named}: "):
        call()


_SPEC_12 = constant_spec(UNIT, (1, 2))
_TENSOR_12 = coefficient_tensor(_SPEC_12, LEGENDRE, (0, 0))
_PATH = WienerPath(iv=UNIT, m=1, N=4, increments=np.zeros((1, 4)))
# (argument, call with the argument set to v and every other argument valid)
_INTEGER_ARGUMENTS = [
    ("k", lambda v: IntegralSpec(iv=UNIT, k=v, indices=(1,), weights=(CONSTANT_ONE,))),
    ("indices", lambda v: IntegralSpec(iv=UNIT, k=1, indices=(v,), weights=(CONSTANT_ONE,))),
    ("j", lambda v: eval_basis(BasisSystem.TRIGONOMETRIC, v, 0.3, UNIT)),
    ("jmax", lambda v: basis_matrix(BasisSystem.HAAR, v, [0.3], UNIT)),
    ("j", lambda v: breakpoints(BasisSystem.WALSH, v, UNIT)),
    ("j", lambda v: integrate_basis(LEGENDRE, v, UNIT)),
    ("jmax", lambda v: jump_depth(BasisSystem.TRIGONOMETRIC, v)),
    ("m", lambda v: gaussian_pool(UNIT, LEGENDRE, v, 3, 1)),
    ("jmax", lambda v: gaussian_pool(UNIT, LEGENDRE, 1, v, 1)),
    ("seed", lambda v: gaussian_pool(UNIT, LEGENDRE, 1, 3, v)),
    ("m", lambda v: brownian_path(UNIT, v, 4, 1)),
    ("N", lambda v: brownian_path(UNIT, 1, v, 1)),
    ("seed", lambda v: brownian_path(UNIT, 1, 4, v)),
    ("m", lambda v: WienerPath(iv=UNIT, m=v, N=4, increments=np.zeros((1, 4)))),
    ("N", lambda v: WienerPath(iv=UNIT, m=1, N=v, increments=np.zeros((1, 4)))),
    ("jmax", lambda v: zeta_from_path(_PATH, LEGENDRE, v)),
    ("seed", lambda v: path_seed(v, 0)),
    ("path_index", lambda v: path_seed(1, v)),
    # read as the block is entered, before any fill opens
    ("m", lambda v: run_paths(UNIT, v, 4, 1, 1).__enter__()),
    ("N", lambda v: run_paths(UNIT, 1, v, 1, 1).__enter__()),
    ("seed", lambda v: run_paths(UNIT, 1, 4, v, 1).__enter__()),
    ("n_paths", lambda v: run_paths(UNIT, 1, 4, 1, v).__enter__()),
    ("n_paths", lambda v: sample_differences(_SPEC_12, LEGENDRE, (0, 0), v, 16, 1)),
    ("N", lambda v: sample_differences(_SPEC_12, LEGENDRE, (0, 0), 100, v, 1)),
    ("seed", lambda v: sample_differences(_SPEC_12, LEGENDRE, (0, 0), 100, 16, v)),
    ("n", lambda v: moment_check(np.zeros(100), _TENSOR_12, 16, v)),
    ("N", lambda v: moment_check(np.zeros(100), _TENSOR_12, v, 1)),
    ("N", lambda v: strong_error_estimate(np.zeros(100), _TENSOR_12, v)),
    ("n", lambda v: strong_error_estimate(np.zeros(100), _TENSOR_12, 16, v)),
    ("n", lambda v: moment_bound_2n(v, 2, 0.1)),
    ("k", lambda v: moment_bound_2n(1, v, 0.1)),
    ("k", lambda v: ms_error_bound(v, 0.1)),
    ("k", lambda v: pair_partitions(v, 1)),
    ("r", lambda v: pair_partitions(4, v)),
]


@pytest.mark.parametrize("value", [True, np.True_, 2.5, 10**5000, -10**5000],
                         ids=["bool", "numpy-bool", "float", "huge", "huge-negative"])
@pytest.mark.parametrize("named, call", _INTEGER_ARGUMENTS,
                         ids=[f"{call.__code__.co_names[0]}-{named}"
                              for named, call in _INTEGER_ARGUMENTS])
def test_every_integer_argument_is_read_strictly(named, call, value):
    # a package error naming the argument, never a bare builtin, and no
    # boolean, fraction or integer past any bound read as a number
    with pytest.raises(ItoFourierError, match=rf"\b{named}\b"):
        call(value)


@pytest.mark.parametrize("call, error, named", [
    (lambda: IntegralSpec.from_json([1, 2]), DomainError, "integral spec JSON must be an object"),
    (lambda: CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=LEGENDRE, orders=(1,),
                               values=np.zeros(3)), DomainError, r"values shape \(3,\) != \(2,\)"),
    (lambda: CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=LEGENDRE, orders=(1,),
                               values=np.array([0.5, np.nan])), NumericError, "non-finite"),
    (lambda: GaussianPool(iv=UNIT, basis=LEGENDRE, m=1, jmax=1,
                          values=np.array([[1.0, 0.0], [np.inf, 0.0]])), DomainError,
     "pool contains non-finite entries"),
], ids=["spec-json-not-object", "tensor-shape", "tensor-nan", "pool-inf"])
def test_malformed_objects_named(call, error, named):
    with pytest.raises(error, match=named):
        call()


def test_one_constant_caps_every_size(tmp_path, monkeypatch):
    table = tmp_path / "table.csv"
    write_coefficient_table(table, coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE,
                                                      (40, 40)))
    batch = brownian_path(UNIT, 1, 2, seed=range(300))
    tensor = coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE, (9, 9))
    pools = zeta_from_path(brownian_path(UNIT, 2, 2, seed=range(150)), LEGENDRE, 9)
    monkeypatch.setattr(errors, "MAX_ENTRIES", 1000)
    for call, named in [
        (lambda: coefficient_tensor(constant_spec(UNIT, (1, 2)), LEGENDRE, (40, 40)),
         "tensor would hold 1681 entries"),
        # 41 rows at 42 nodes: 1722 entries in one sweep array
        (lambda: coefficient_tensor(constant_spec(UNIT, (1,)), LEGENDRE, (40,)),
         "legendre quadrature array would hold 1722 entries"),
        (lambda: read_coefficient_table(table), "tensor would hold 1681 entries"),
        (lambda: brownian_path(UNIT, 2, 501, seed=1), "paths would hold 1002 increments"),
        # 300 pools of 2 rows of 2 values, on a Haar plan of 2 cells
        (lambda: zeta_from_path(batch, BasisSystem.HAAR, 1), "pool would hold 1200 entries"),
        # the first contraction of 150 pools: 150 times 10 entries
        (lambda: truncated_expansion(tensor, pools), "expansion head would hold 1500 entries"),
        (lambda: sample_differences(constant_spec(UNIT, (1, 2)), LEGENDRE, (0, 0), 1001, 16, 1),
         "the run of n_paths would hold 1001 paths"),
        # 2 rows of 501 values, checked before numpy is asked for them
        (lambda: gaussian_pool(UNIT, LEGENDRE, 1, 500, 1), "pool would hold 1002 entries"),
        # 501 rows at 2 points; Haar jmax 2**48 used to ask numpy for 2 PiB
        (lambda: basis_matrix(BasisSystem.HAAR, 500, [0.3, 0.6], UNIT),
         "basis matrix would hold 1002 values"),
    ]:
        with pytest.raises(CapacityError, match=named + ".* > cap 1000$"):
            call()


def test_a_dyadic_pool_is_capped_by_its_size_not_its_grid(monkeypatch):
    # N (jmax + 1) = 1200 basis values would exceed the cap, but the Haar plan
    # has 2 cells and the pool 2 rows of 2 values
    path = brownian_path(UNIT, 1, 600, seed=5)
    monkeypatch.setattr(errors, "MAX_ENTRIES", 1000)
    pool = zeta_from_path(path, BasisSystem.HAAR, 1)
    halves = path.increments.reshape(2, 300).sum(axis=1)
    assert pool.values[1] == pytest.approx([halves.sum(), halves[0] - halves[1]])
