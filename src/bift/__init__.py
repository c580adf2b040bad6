"""Two-point-measurement joint distributions and fluctuation-theorem
verification for an open bipartite quantum system."""

__version__ = "0.1.0"
