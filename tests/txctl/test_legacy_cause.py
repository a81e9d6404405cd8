"""The legacy unstamped-cause path is gone: ``cause=`` is required.

Unstamped construction now fails with ``TypeError`` (pinned in
``tests/txctl/test_causes.py``); stamped construction, the only form
left, must stay free of the warning the old default-classify bridge
emitted.
"""

import warnings

from repro.errors import MisspeculationError
from repro.txctl import AbortCause


class TestLegacyCausePath:
    def test_stamped_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exc = MisspeculationError("stamped", vid=1,
                                      cause=AbortCause.WRONG_PATH)
        assert exc.cause is AbortCause.WRONG_PATH
