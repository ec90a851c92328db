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
def _forced_zero_weight_drop():
    def failing_fit(*args):
        raise atomdfo.ord.PoisednessFailure("forced: drop by weight alone")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atomdfo.ord, "poll_gradient", failing_fit)
        yield


@pytest.fixture
def zero_weight_drop():
    """A context manager under which ORD drops exactly its zero-weight atoms.

    ORD falls back to that rule whenever its drop-gradient fit raises
    PoisednessFailure, so inside the context every fit raises.
    """
    return _forced_zero_weight_drop


@pytest.fixture(params=["zero_weight", "gradient_filtered"])
def drop_rule(request, zero_weight_drop):
    """Runs a test once under each rule ORD drops by: its zero-weight fallback, then its own."""
    with zero_weight_drop() if request.param == "zero_weight" else contextlib.nullcontext():
        yield request.param
