"""Make the in-tree package importable in the subprocesses some tests start,
and build the compiled backend for the parity tests."""

import importlib.util
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and its run time bounded.
settings.register_profile("skm", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("skm")


@pytest.fixture(scope="session")
def fastcore(tmp_path_factory):
    """The compiled backend, built from `_fastcore.c` with gcc and imported.

    Built from the source tree on every run, so the parity tests check the
    C as it is now, whether or not an installed build exists. On x86-64
    Linux it takes setup.py's flags for glibc's vector exp and pow; like
    setup.py it links with -pthread.
    """
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not available")
    src = Path(_SRC) / "skm" / "_backend" / "_fastcore.c"
    out = tmp_path_factory.mktemp("fastcore") / ("_fastcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    vector_math = sys.platform == "linux" and platform.machine() == "x86_64"
    subprocess.run(
        ["gcc", "-O3", "-Wall", "-Werror", "-shared", "-fPIC", "-pthread"]
        + (["-fno-math-errno"] if vector_math else [])
        + ["-I" + sysconfig.get_paths()["include"], str(src), "-o", str(out)]
        + (["-lmvec"] if vector_math else []),
        check=True, capture_output=True, text=True,
    )
    spec = importlib.util.spec_from_file_location("_fastcore", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def impl(request):
    """The backend module named by the indirect parameter.

    "skm._backend._numpy_impl" or "skm._backend._fastcore", the latter
    built from the source tree. Session-scoped, so property tests can use it.
    """
    if request.param == "skm._backend._fastcore":
        return request.getfixturevalue("fastcore")
    return importlib.import_module(request.param)
