from hypothesis import settings

# `pytest --hypothesis-profile=ci`: a longer search, which CI runs over the
# bit-for-bit oracles in test_exact_oracles.py
settings.register_profile("ci", max_examples=2000)
