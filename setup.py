from setuptools import Extension, setup

# _kernels.c is generated from _kernels.pyx (`cython -3 src/eatcert/_kernels.pyx`)
# and shipped, so the build needs only a C compiler.  optional=True: without
# one the extension is skipped and the package falls back to pure Python.
setup(
    ext_modules=[
        Extension("eatcert._kernels", ["src/eatcert/_kernels.c"], optional=True)
    ]
)
