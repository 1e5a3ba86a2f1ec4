"""End-to-end benchmark of the incremental KBC stack (see README.md)."""
