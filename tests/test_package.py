import crn_multicast


def test_every_exported_name_resolves():
    missing = [name for name in crn_multicast.__all__ if not hasattr(crn_multicast, name)]
    assert not missing
    assert len(set(crn_multicast.__all__)) == len(crn_multicast.__all__)
