"""Exact character-degree computations for matrix groups over finite quotient rings."""
