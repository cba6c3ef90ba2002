from setuptools import Extension, setup

# A hand-written C source: setuptools builds it with the system compiler, no
# Cython or numpy headers needed. The package falls back to the numpy
# implementation at import time, so a failed compile does not block
# installation.
setup(
    ext_modules=[
        Extension(
            "skm._backend._fastcore",
            ["src/skm/_backend/_fastcore.c"],
            optional=True,
        )
    ]
)
