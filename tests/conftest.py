import os
from pathlib import Path

import pytest

import kmachine


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same kmachine as
    this process, also when pytest put it on sys.path without setting
    PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(kmachine.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
