import sys
from pathlib import Path

# Allow running pytest from a fresh checkout without installing the package.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
