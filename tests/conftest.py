"""Loaded by pytest before any test module: importing macrosize here, ahead
of numpy, lets the package pin OpenBLAS to one thread for the whole run."""

import macrosize  # noqa: F401
