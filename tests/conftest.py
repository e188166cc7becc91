from hypothesis import settings

# `pytest --hypothesis-profile=ci`: a longer search, which CI runs over the
# bit-for-bit oracles and the load property in test_exact_oracles.py and the
# config document property in test_config.py
settings.register_profile("ci", max_examples=2000)
