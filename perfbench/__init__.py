"""The repository's benchmark: three workloads through the public API, with
output checks and an outside-in per-layer trace (see ``README.md``)."""
