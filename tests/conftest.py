from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "suite",
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
# ``--hypothesis-profile=derandomized`` draws the same examples on every
# run, keeps no example database and does not shrink a failure:
# ``tests/mutants.py`` runs under it, so a mutant it kills stays killed.
settings.register_profile(
    "derandomized",
    settings.get_profile("suite"),
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate),
)
