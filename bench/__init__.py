"""Host-time benchmark of the P4Auth reproduction (see bench/README.md)."""
