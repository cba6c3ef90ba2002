import platform
import sys

from setuptools import Extension, setup

# A hand-written C source: setuptools builds it with the system compiler, no
# Cython or numpy headers needed. The package falls back to the numpy
# implementation at import time, so a failed compile does not block
# installation. On x86-64 Linux the kernel sums compute exp in line where the
# CPU has AVX-512, within 2 ulp, and call glibc's vector exp on other CPUs
# and its vector pow on all: -fno-math-errno lets the compiler vectorise
# those calls and libmvec holds them. A build that cannot link libmvec falls
# back to numpy too. Large scans and kernel sums start POSIX threads:
# -pthread links libpthread where glibc is older than 2.34 and has it apart
# from libc.
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
