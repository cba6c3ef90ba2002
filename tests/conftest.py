"""Make the in-tree package importable in the subprocesses some tests start,
and build the compiled backend for the parity tests."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and its run time bounded.
settings.register_profile("skm", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("skm")


@pytest.fixture(scope="session")
def fastcore(tmp_path_factory):
    """The compiled backend, built from `_fastcore.c` by setup.py and imported.

    Built from the source tree on every run, so the parity tests check the
    C as it is now, whether or not an installed build exists. It takes
    setup.py's own recipe (`setup.py build_ext`, run from the repository
    root), with -Wall -Werror added to any CFLAGS in the environment. The
    extension is optional there, so a failed compile leaves no module, and
    the compiler's output is shown.
    """
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(compiler.split()[0]) is None:
        pytest.skip(f"the C compiler {compiler!r} is not available")
    build = tmp_path_factory.mktemp("fastcore")
    cflags = " ".join(filter(None, [os.environ.get("CFLAGS"), "-Wall -Werror"]))
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--build-lib", str(build),
         "--build-temp", str(build / "temp")],
        cwd=_ROOT, env=dict(os.environ, CFLAGS=cflags), capture_output=True, text=True,
    )
    out = build / "skm" / "_backend" / ("_fastcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert out.is_file(), f"setup.py built no extension:\n{proc.stdout}{proc.stderr}"
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
