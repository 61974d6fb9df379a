"""Reference implementations the production kernels are checked against."""
