"""Exact-arithmetic toolkit for vertex-localized clique-count bounds."""

__version__ = "0.1.0"
