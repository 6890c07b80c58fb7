"""Phrase-level speculative Jacobi decoding engine with acceptance-rate oracles."""
