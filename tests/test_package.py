import equilibrate


def test_all_names_resolve_are_unique_and_sorted():
    names = equilibrate.__all__
    missing = [name for name in names if not hasattr(equilibrate, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
