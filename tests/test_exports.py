import frobtorus


def test_every_root_export_resolves_and_appears_once():
    names = frobtorus.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(frobtorus, name)]
    assert missing == []
