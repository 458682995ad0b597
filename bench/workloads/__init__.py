"""The six workloads (see bench/README.md)."""
