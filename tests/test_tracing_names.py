"""The benchmark's layer tracer finds every function it times.

``perfbench/tracing.py`` replaces each entry of its ``TIMED`` table at the
name the caller looks up; a renamed or moved function would only surface as
a crash of a ``--trace 1`` benchmark run.  This test fails first.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_timed_name_is_bound():
    missing = ["%s.%s" % (owner.__name__, attr)
               for owner, attr, _, _ in tracing.TIMED if attr not in owner.__dict__]
    assert not missing
