import platform
import sys

from setuptools import Extension, setup

# A hand-written C source: setuptools builds it with the system compiler, no
# Cython or numpy headers needed. The package falls back to the numpy
# implementation at import time, so a failed compile does not block
# installation. On x86-64 Linux the kernel sums call glibc's vector exp and
# pow: -fno-math-errno lets the compiler vectorise them and libmvec holds
# them. A build that cannot link libmvec falls back to numpy too. Large scans
# and kernel sums start POSIX threads: -pthread links libpthread where glibc
# is older than 2.34 and has it apart from libc.
VECTOR_MATH = sys.platform == "linux" and platform.machine() == "x86_64"

setup(
    ext_modules=[
        Extension(
            "skm._backend._fastcore",
            ["src/skm/_backend/_fastcore.c"],
            extra_compile_args=["-pthread"] + (["-fno-math-errno"] if VECTOR_MATH else []),
            extra_link_args=["-pthread"],
            libraries=["mvec"] if VECTOR_MATH else [],
            optional=True,
        )
    ]
)
