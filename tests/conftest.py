from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no deadline, because timing on a loaded host is not a property.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
