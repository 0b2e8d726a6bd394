from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("hqclab", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("hqclab")
