from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
