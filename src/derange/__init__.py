"""Exact computation of the derangement polynomial families, their Hankel
determinants, and the Erlang moment representation."""
