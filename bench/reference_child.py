"""Reference child of the ``setup_s`` measurement.

A fresh interpreter imports a fixed set of modules that the package does not
own: numpy and scipy extension modules plus pure-Python standard library
packages, the same mix of file reads, unmarshalling, module bodies and
shared-library loading as the package's own import.  Its time, taken just
before and after each setup child, tracks how fast the host imports at that
moment (see ``clock.py``).  Prints the seconds taken.
"""

import time

start = time.perf_counter()
import decimal  # noqa: E402,F401
import email.mime.multipart  # noqa: E402,F401
import http.client  # noqa: E402,F401
import xml.dom.minidom  # noqa: E402,F401

import numpy  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

print(time.perf_counter() - start)
