import idscale


def test_export_list():
    names = idscale.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(idscale, name), name
    # the Wilks statistic is a test oracle, not library code
    assert "lrt_statistic" not in names
