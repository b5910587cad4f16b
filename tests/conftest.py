"""Every hypothesis property runs the same 60 derandomized examples on
each run and keeps no example database."""

from hypothesis import settings

settings.register_profile("qcnied", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("qcnied")
