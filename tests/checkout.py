"""The environment of a subprocess that runs this checkout's package."""

import os
from pathlib import Path

#: The ``src`` directory of this checkout.
SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env() -> dict:
    """The environment for a subprocess that must import this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
