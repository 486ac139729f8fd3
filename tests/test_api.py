import itofourier


def test_exports_resolve_once_and_leave_out_test_references():
    names = itofourier.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(itofourier, name) is not None, name
    assert not {"hermite_reference", "eval_kernel"} & set(names)
