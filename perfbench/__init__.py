"""A steady benchmark of the estimation engine and the serving stack."""
