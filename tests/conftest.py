import contextlib
import sys
from pathlib import Path

import pytest

# Allow running pytest from a fresh checkout without installing the package.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import atomdfo.ord  # noqa: E402 - needs the path above


@contextlib.contextmanager
def _zero_weight_drop():
    original = atomdfo.ord.drop_phase
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atomdfo.ord, "drop_phase", lambda active_ids, y_bar, g: original(active_ids, y_bar))
        yield


@pytest.fixture
def zero_weight_drop():
    """A context manager under which ORD drops exactly its zero-weight atoms.

    Inside it ORD's drop_phase ignores the fitted gradient. The fit makes no
    evaluation and draws no random number, so only the dropped sets change.
    """
    return _zero_weight_drop


@pytest.fixture(params=["zero_weight", "gradient_filtered"])
def drop_rule(request, zero_weight_drop):
    """Runs a test once under the weight-only rule, patched in, then under ORD's own rule."""
    with zero_weight_drop() if request.param == "zero_weight" else contextlib.nullcontext():
        yield request.param
