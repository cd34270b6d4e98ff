import crn_multicast


def test_every_exported_name_resolves():
    missing = [name for name in crn_multicast.__all__ if not hasattr(crn_multicast, name)]
    assert not missing
    assert len(set(crn_multicast.__all__)) == len(crn_multicast.__all__)


def test_public_api_is_exactly_this_list():
    # A change to the public API is deliberate: it changes this list too.
    assert crn_multicast.__all__ == [
        "AggregateRow",
        "ScenarioParams",
        "Scheme",
        "SweepSpec",
        "TreeKind",
        "aggregate_trials",
        "run_scenario_sessions",
        "run_sweep",
        "session_to_csv",
    ]
